package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVarianceCommandStoreDSN: the -store flag speaks DSNs — every backend
// scheme produces the byte-identical report, a seglog DSN leaves segment
// files a rerun resumes from, and the retired jsonl scheme is refused with
// its bare-directory replacement.
func TestVarianceCommandStoreDSN(t *testing.T) {
	var clean bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "2"), &clean); err != nil {
		t.Fatal(err)
	}

	t.Run("seglog resumes", func(t *testing.T) {
		dir := t.TempDir()
		dsn := "seglog:" + dir
		var first, second bytes.Buffer
		if err := run(context.Background(), varianceArgs("-p", "2", "-store", dsn), &first); err != nil {
			t.Fatal(err)
		}
		if first.String() != clean.String() {
			t.Errorf("seglog run differs from storeless run:\n%s\n---\n%s", first.String(), clean.String())
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segment files written (%v, %v)", segs, err)
		}
		if err := run(context.Background(), varianceArgs("-p", "2", "-store", dsn), &second); err != nil {
			t.Fatal(err)
		}
		if second.String() != clean.String() {
			t.Errorf("seglog cached rerun differs from storeless run")
		}
	})

	t.Run("mem matches", func(t *testing.T) {
		var out bytes.Buffer
		if err := run(context.Background(), varianceArgs("-p", "2", "-store", "mem:"), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != clean.String() {
			t.Errorf("mem run differs from storeless run")
		}
	})

	t.Run("explicit jsonl scheme", func(t *testing.T) {
		dir := t.TempDir()
		var out bytes.Buffer
		err := run(context.Background(), varianceArgs("-p", "2", "-store", "jsonl:"+dir), &out)
		if err == nil || !strings.Contains(err.Error(), "retired") || !strings.Contains(err.Error(), dir) {
			t.Fatalf("jsonl: want the retired-engine error naming %s, got %v", dir, err)
		}
		if out.Len() != 0 {
			t.Errorf("refused store rendered a report:\n%s", out.String())
		}
	})

	t.Run("unknown scheme is actionable", func(t *testing.T) {
		var out bytes.Buffer
		err := run(context.Background(), varianceArgs("-p", "1", "-store", "bolt:"+t.TempDir()), &out)
		if err == nil {
			t.Fatal("unknown scheme must fail")
		}
		for _, want := range []string{"unknown scheme", "mem:", "seglog:DIR"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not mention %q", err, want)
			}
		}
	})
}

// TestWatchCommandStoreDSN: watch takes no store — its analysis is three
// counts and two score sums, rebuilt by reading the file again — so it has
// no -store flag, and passing one fails before anything is created.
func TestWatchCommandStoreDSN(t *testing.T) {
	tmp := t.TempDir()
	scores := filepath.Join(tmp, "scores.csv")
	if err := os.WriteFile(scores, []byte("0.91,0.85\n0.93,0.86\n0.90,0.84\n0.92,0.83\n0.94,0.87\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	wstore := filepath.Join(tmp, "wstore")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"watch", "-file", scores, "-store", wstore}, &out); err == nil {
		t.Errorf("watch -store %s succeeded:\n%s", wstore, out.String())
	}
	if _, err := os.Stat(wstore); !os.IsNotExist(err) {
		t.Errorf("a rejected watch -store created %s (%v)", wstore, err)
	}
}
