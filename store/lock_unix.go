//go:build unix

package store

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// lockFile takes a non-blocking exclusive advisory flock on f for as long
// as it stays open. The kernel releases the lock when the file descriptor
// closes — including on SIGKILL or a crash — so an interrupted run never
// leaves the store wedged. The lock is what makes OpenSegLog's tail repair
// (truncating torn bytes) safe: without it, a second process could read a
// live writer's in-flight commit as a torn tail and truncate away a
// completed record.
func lockFile(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return fmt.Errorf("store: %w: %s is held by another process (the lock is released automatically when that process exits)", ErrLocked, f.Name())
	}
	if err != nil {
		return fmt.Errorf("store: locking %s: %w", f.Name(), err)
	}
	return nil
}
