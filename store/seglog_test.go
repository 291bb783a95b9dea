package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSegLogRotation: crossing the segment-size threshold seals the active
// segment and starts the next; every record stays readable live and across
// reopen, and sealed segments are never rewritten.
func TestSegLogRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultSegCfg
	cfg.segmentBytes = 512
	s, err := openSegLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put(TrialKey(1, "ds", i, "A"), "fp", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ns, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) < 2 {
		t.Fatalf("wrote %d records over a 512-byte threshold but got %d segment(s)", n, len(ns))
	}
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("Len after multi-segment reopen = %d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := s2.Get(TrialKey(1, "ds", i, "A"), "fp"); !ok || v != float64(i) {
			t.Fatalf("record %d lost across rotation: %v, %v", i, v, ok)
		}
	}
}

// TestSegLogFlushBarrier: a record is on disk no later than Flush's return
// — proven by reading the segment bytes directly, without Close's drain.
func TestSegLogFlushBarrier(t *testing.T) {
	dir := t.TempDir()
	// An hour-long coalescing window: nothing reaches disk unless the
	// barrier (or the size threshold) forces it.
	cfg := defaultSegCfg
	cfg.flushInterval = time.Hour
	s, err := openSegLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("k", "fp", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PutJSON("j", "fp", map[string]int{"n": 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	var probe index
	good, perr := probe.replaySegment("probe", data)
	if perr != nil {
		t.Fatalf("flushed segment does not replay cleanly: %v", perr)
	}
	if good != len(data) {
		t.Fatalf("flushed segment has %d trailing bytes past the last frame", len(data)-good)
	}
	if probe.count("") != 2 {
		t.Fatalf("flushed segment replays %d cells, want 2", probe.count(""))
	}
}

// TestSegLogCoalescing: many Puts inside one coalescing window reach the
// disk, and group commit keeps the file consistent under concurrency.
func TestSegLogCoalescing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = 400, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := s.Put(TrialKey(2, "ds", i, "B"), "fp", float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("Len after coalesced writes = %d, want %d", s2.Len(), n)
	}
}

// TestSegLogSealedSegmentCorruptionErrors: damage in a non-final segment
// is real corruption — a sealed segment was fully committed before its
// successor existed — and must be reported, never truncated away.
func TestSegLogSealedSegmentCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultSegCfg
	cfg.segmentBytes = 256
	s, err := openSegLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(TrialKey(1, "ds", i, "A"), "fp", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ns, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) < 2 {
		t.Fatalf("need ≥2 segments, got %d", len(ns))
	}
	// Flip one payload byte in the FIRST (sealed) segment.
	first := filepath.Join(dir, segName(ns[0]))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegLog(dir); err == nil || !strings.Contains(err.Error(), segName(ns[0])) {
		t.Fatalf("corrupt sealed segment: want error naming %s, got %v", segName(ns[0]), err)
	}
}

// TestSegLogExcludesSecondOpener: one process owns a seglog directory at a
// time, and the lock dies with Close.
func TestSegLogExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegLog(dir); err == nil || !strings.Contains(err.Error(), "locked") {
		s1.Close()
		t.Fatalf("second OpenSegLog of a live store: want locked error, got %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatalf("OpenSegLog after Close must succeed: %v", err)
	}
	s2.Close()
}

// TestSegLogCloseDrains: records accepted but not yet flushed are
// committed by Close — the shutdown path a CLI's deferred Close relies on.
func TestSegLogCloseDrains(t *testing.T) {
	dir := t.TempDir()
	cfg := defaultSegCfg
	cfg.flushInterval = time.Hour
	s, err := openSegLog(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(TrialKey(3, "ds", i, "A"), "fp", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("Len after Close-drain reopen = %d, want 20 (Close lost pending records)", s2.Len())
	}
}
