package main

import (
	"os"
	"runtime/debug"
	"syscall"
)

// maxRSSKB returns a finished process's peak resident set in KiB.
func maxRSSKB(ps *os.ProcessState) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss // KiB on Linux
	}
	return 0
}

// lowerPeakRSS returns free memory to the OS and resets this process's
// peak-RSS mark to its current RSS. os/exec starts children with vfork
// semantics, and Linux starts a child's peak at its parent's mark, so
// without this a child's peak would read the benchmark's own largest
// footprint (after reopening a 55 MiB store, say) instead of its own.
func lowerPeakRSS() {
	debug.FreeOSMemory()
	// An error leaves the mark in place, which only overstates small peaks.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
