//go:build unix

package store

import (
	"errors"
	"testing"
)

// TestOpenContentionReturnsErrLocked pins the flock contract the CLI's
// -wait-lock retry loop is built on: a second open of a live store fails
// immediately (non-blocking) with an errors.Is-able ErrLocked, and
// succeeds the moment the holder lets go.
func TestOpenContentionReturnsErrLocked(t *testing.T) {
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
