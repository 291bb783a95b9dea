package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"varbench/store"
)

// TestVarianceQuarantineExitsDegraded runs the variance subcommand over a
// fault-injected store in quarantine mode: the report renders, the
// quarantine summary is visible, and the returned error classifies as
// errDegraded (exit code 3 in main).
func TestVarianceQuarantineExitsDegraded(t *testing.T) {
	dir := t.TempDir()
	dsn := "faultinject:put@2-4:" + dir
	var buf bytes.Buffer
	err := run(context.Background(), []string{"variance",
		"-task", "tiny", "-k", "3", "-realizations", "4",
		"-max-retries", "0", "-fail-fast=false",
		"-store", dsn}, &buf)
	if !errors.Is(err, errDegraded) {
		t.Fatalf("err = %v, want errDegraded", err)
	}
	out := buf.String()
	if !strings.Contains(out, "quarantined:") {
		t.Fatalf("report lacks the quarantine summary:\n%s", out)
	}
	if !strings.Contains(out, "variance decomposition") {
		t.Fatalf("degraded run did not render the partial report:\n%s", out)
	}

	// Resuming over the same directory with a healthy store retries the
	// quarantined cells and matches the never-faulted run byte for byte.
	var resumed bytes.Buffer
	if err := run(context.Background(), []string{"variance",
		"-task", "tiny", "-k", "3", "-realizations", "4",
		"-store", dir}, &resumed); err != nil {
		t.Fatalf("resume: %v", err)
	}
	var clean bytes.Buffer
	if err := run(context.Background(), []string{"variance",
		"-task", "tiny", "-k", "3", "-realizations", "4"}, &clean); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if resumed.String() != clean.String() {
		t.Fatalf("resumed run differs from clean run:\n--- resumed ---\n%s--- clean ---\n%s",
			resumed.String(), clean.String())
	}
}

// TestVarianceResilienceFlagsParse exercises the flag surface without
// needing faults: retries and a generous deadline over a healthy pipeline
// must reproduce the clean report exactly.
func TestVarianceResilienceFlagsParse(t *testing.T) {
	var clean, guarded bytes.Buffer
	base := []string{"variance", "-task", "tiny", "-k", "3", "-realizations", "4"}
	if err := run(context.Background(), base, &clean); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(base,
		"-max-retries", "2", "-trial-timeout", "1m"), &guarded); err != nil {
		t.Fatal(err)
	}
	if clean.String() != guarded.String() {
		t.Fatalf("resilience flags perturbed a healthy run:\n--- guarded ---\n%s--- clean ---\n%s",
			guarded.String(), clean.String())
	}
}

// TestWaitLockRetriesUntilFree pins the -wait-lock behavior through the
// shared openStore helper: a held lock fails immediately without the flag,
// waits and succeeds with it, and times out with ErrLocked when the holder
// never lets go.
func TestWaitLockRetriesUntilFree(t *testing.T) {
	dir := t.TempDir()
	holder, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := openStore(context.Background(), "seglog:"+dir, 0); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("no wait: err = %v, want ErrLocked", err)
	}
	if _, err := openStore(context.Background(), "seglog:"+dir, 150*time.Millisecond); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("timed-out wait: err = %v, want ErrLocked", err)
	}

	// Release the lock shortly after the waiter starts; the wait must
	// outlive the holder and succeed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(100 * time.Millisecond)
		holder.Close()
	}()
	st, err := openStore(context.Background(), "seglog:"+dir, 10*time.Second)
	<-done
	if err != nil {
		t.Fatalf("wait for released lock: %v", err)
	}
	st.Close()
}

// TestWatchReportsSkippedLines: malformed lines in the watched file are
// skipped, counted, and surfaced in the rendered text summary.
func TestWatchReportsSkippedLines(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "scores.csv")
	var content bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&content, "0.%02d,0.%02d\n", 80+i%15, 60+(i*7)%20)
		if i%4 == 1 {
			// Digit-bearing garbage: a digit-free line would read as a
			// header and be skipped silently by design.
			content.WriteString("0.91,corrupted\n")
		}
	}
	if err := os.WriteFile(file, content.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"watch", "-file", file}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "skipped: 3 malformed line(s)") {
		t.Fatalf("summary lacks the malformed-line count:\n%s", out)
	}
	// JSON output must stay parseable: the count is stderr-only there.
	var jsonBuf bytes.Buffer
	if err := run(context.Background(), []string{"watch", "-file", file, "-format", "json"}, &jsonBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(jsonBuf.String(), "skipped:") {
		t.Fatalf("JSON output polluted by the text summary:\n%s", jsonBuf.String())
	}
}
