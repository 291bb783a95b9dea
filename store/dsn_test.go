package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenDSNSchemes(t *testing.T) {
	t.Run("jsonl explicit", func(t *testing.T) {
		// The retired engine's scheme is refused with its replacement.
		dir := t.TempDir()
		b, err := OpenDSN("jsonl:" + dir)
		if err == nil {
			b.Close()
			t.Fatal("jsonl: opened a store, want the retired-engine error")
		}
		for _, want := range []string{"retired", "bare directory", dir} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})
	t.Run("bare path means seglog", func(t *testing.T) {
		// Relative drive-letter paths land in a scratch working directory.
		wd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chdir(wd) })
		for _, dsn := range []string{
			t.TempDir(),
			filepath.Join(t.TempDir(), "nested", "cache"),
			`C:\cache`,
			`c:\cache`,
			"d:/x",
		} {
			b, err := OpenDSN(dsn)
			if err != nil {
				t.Fatalf("OpenDSN(%q): %v", dsn, err)
			}
			if _, ok := b.(*SegLog); !ok {
				t.Fatalf("OpenDSN(%q) opened %T, want *SegLog", dsn, b)
			}
			b.Close()
		}
	})
	t.Run("mem", func(t *testing.T) {
		b, err := OpenDSN("mem:")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, ok := b.(*Mem); !ok {
			t.Fatalf("mem: opened %T, want *Mem", b)
		}
	})
	t.Run("seglog", func(t *testing.T) {
		b, err := OpenDSN("seglog:" + t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if _, ok := b.(*SegLog); !ok {
			t.Fatalf("seglog: opened %T, want *SegLog", b)
		}
	})
}

func TestOpenDSNErrors(t *testing.T) {
	cases := []struct {
		dsn  string
		want string // substring of the error
	}{
		{"bolt:/tmp/x", "unknown scheme"},
		{"bolt:/tmp/x", "seglog:DIR"}, // the error names the valid schemes
		{"mem:/tmp/x", "takes no path"},
		{"jsonl:", "retired"},
		{"seglog:", "needs a directory"},
	}
	for _, c := range cases {
		b, err := OpenDSN(c.dsn)
		if err == nil {
			b.Close()
			t.Errorf("OpenDSN(%q) succeeded, want error containing %q", c.dsn, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("OpenDSN(%q) = %v, want error containing %q", c.dsn, err, c.want)
		}
	}
}
