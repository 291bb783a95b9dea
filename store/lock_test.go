//go:build unix

package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestOpenContentionReturnsErrLocked pins the flock contract the CLI's
// -wait-lock retry loop is built on: a second open of a live store fails
// immediately (non-blocking) with an errors.Is-able ErrLocked, and
// succeeds the moment the holder lets go.
func TestOpenContentionReturnsErrLocked(t *testing.T) {
	// A pre-upgrade process still appending to a legacy trials.jsonl holds
	// that file's flock: the import must not read the log under it.
	t.Run("jsonl", func(t *testing.T) {
		dir := t.TempDir()
		writeLegacy(t, dir, `{"key":"a","fp":"f","score":"1"}`+"\n")
		holder, err := os.Open(filepath.Join(dir, legacyLogName))
		if err != nil {
			t.Fatal(err)
		}
		if err := lockFile(holder); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegLog(dir); !errors.Is(err, ErrLocked) {
			t.Fatalf("OpenSegLog under a held legacy flock: %v, want ErrLocked", err)
		}
		holder.Close()
		// The refused open released dir/LOCK too, so this one can proceed.
		re, err := OpenSegLog(dir)
		if err != nil {
			t.Fatalf("OpenSegLog after the legacy writer exited: %v", err)
		}
		defer re.Close()
		if v, ok := re.Get("a", "f"); !ok || v != 1 {
			t.Fatalf("imported a = %v, %v; want 1, true", v, ok)
		}
	})
	t.Run("seglog", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenSegLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSegLog(dir); !errors.Is(err, ErrLocked) {
			t.Fatalf("second OpenSegLog: %v, want ErrLocked", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSegLog(dir)
		if err != nil {
			t.Fatalf("OpenSegLog after holder closed: %v", err)
		}
		re.Close()
	})
}
