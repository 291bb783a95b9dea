package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// writeScoreFile writes n deterministic paired score lines, streaming
// them so that a long log costs the test no memory.
func writeScoreFile(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// A bufio.Writer keeps its first write error, and Flush returns it.
	bw := bufio.NewWriter(f)
	bw.WriteString("# synthetic paired scores\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "0.%02d,0.%02d\n", 80+i%15, 60+(i*7)%20)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchCommand: a bounded (non-follow) watch over a CSV score file
// renders the same conclusion as `varbench compare` over per-line score
// columns would — and the report is deterministic across reruns.
func TestWatchCommand(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "scores.csv")
	writeScoreFile(t, file, 12)

	var first, second bytes.Buffer
	args := []string{"watch", "-file", file, "-seed", "3", "-gamma", "0.6"}
	if err := run(context.Background(), args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("watch reruns differ:\n%s\n---\n%s", first.String(), second.String())
	}
	for _, want := range []string{"P(A>B)", "conclusion"} {
		if !strings.Contains(strings.ToLower(first.String()), strings.ToLower(want)) {
			t.Errorf("watch report lacks %q:\n%s", want, first.String())
		}
	}

	// JSONL input with the same values concludes identically.
	jsonl := filepath.Join(dir, "scores.jsonl")
	var buf bytes.Buffer
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&buf, "{\"a\": 0.%02d, \"b\": 0.%02d}\n", 80+i%15, 60+(i*7)%20)
	}
	if err := os.WriteFile(jsonl, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromJSON bytes.Buffer
	if err := run(context.Background(), []string{"watch", "-file", jsonl, "-seed", "3", "-gamma", "0.6"}, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if fromJSON.String() != first.String() {
		t.Errorf("JSONL watch differs from CSV watch:\n%s\n---\n%s", fromJSON.String(), first.String())
	}
}

// TestWatchCommandErrors pins the flag validation and the too-few-pairs
// failure.
func TestWatchCommandErrors(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"watch"}, &out); err == nil {
		t.Error("watch without -file accepted")
	}
	one := filepath.Join(dir, "one.csv")
	if err := os.WriteFile(one, []byte("0.5,0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"watch", "-file", one}, &out); err == nil ||
		!strings.Contains(err.Error(), "not enough") {
		t.Errorf("1-pair watch: %v", err)
	}
	if err := run(context.Background(), []string{"watch", "-file", one, "-format", "bogus"}, &out); err == nil {
		t.Error("bogus format accepted")
	}
}

// TestWatchCommandFollowInterrupt: a -follow watch canceled while tailing
// renders the conclusion so far and reports context.Canceled (main maps
// that to exit 130); a bounded rerun over the same file renders a report
// byte-identical to the uninterrupted one.
func TestWatchCommandFollowInterrupt(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "scores.csv")
	writeScoreFile(t, file, 10)

	var clean bytes.Buffer
	base := []string{"watch", "-file", file, "-seed", "7"}
	if err := run(context.Background(), base, &clean); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	followArgs := append(base[:len(base):len(base)], "-follow", "-poll", "10ms")
	done := make(chan error, 1)
	var followed bytes.Buffer
	go func() { done <- run(ctx, followArgs, &followed) }()
	time.Sleep(200 * time.Millisecond) // let the tail consume the file
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted follow: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow watch did not exit after cancel")
	}
	// The interrupt already rendered the conclusion over the pairs so far.
	if followed.String() != clean.String() {
		t.Errorf("interrupted follow report differs:\n%s\n---\n%s", followed.String(), clean.String())
	}

	// Rerun: the bounded watch re-reads the file and renders the identical
	// report.
	var rerun bytes.Buffer
	if err := run(context.Background(), base, &rerun); err != nil {
		t.Fatal(err)
	}
	if rerun.String() != clean.String() {
		t.Errorf("rerun watch differs from uninterrupted run:\n%s\n---\n%s", rerun.String(), clean.String())
	}
}

// TestWatchMemoryIsConstant: watch keeps no score history, so reading a
// 2M-pair log allocates within 1 MiB of what a 20k-pair log does, in text
// and in JSON. A watch that kept the scores would allocate at least 32 MB
// more for the longer log.
func TestWatchMemoryIsConstant(t *testing.T) {
	dir := t.TempDir()
	small, large := filepath.Join(dir, "20k.csv"), filepath.Join(dir, "2m.csv")
	writeScoreFile(t, small, 20_000)
	writeScoreFile(t, large, 2_000_000)
	for _, format := range []string{"text", "json"} {
		allocated := func(file string) uint64 {
			t.Helper()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := run(context.Background(), []string{"watch", "-file", file, "-format", format}, io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		s, l := allocated(small), allocated(large)
		t.Logf("%s: %d bytes allocated on 20k pairs, %d on 2M", format, s, l)
		if l > s+1<<20 {
			t.Errorf("%s: watch allocated %d bytes on 2M pairs, %d on 20k: want within 1 MiB", format, l, s)
		}
	}
}

// TestWatchEveryOutputIsLinear: an interim JSON report is the same size
// whatever the pair count, so `-every` output grows at most in proportion
// to the log. A report that printed the scores would grow with the square
// of it.
func TestWatchEveryOutputIsLinear(t *testing.T) {
	dir := t.TempDir()
	output := func(n int) int {
		t.Helper()
		file := filepath.Join(dir, fmt.Sprintf("%d.csv", n))
		writeScoreFile(t, file, n)
		var out bytes.Buffer
		if err := run(context.Background(), []string{"watch", "-file", file, "-every", "1000", "-format", "json"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.Len()
	}
	s, l := output(2_000), output(20_000)
	t.Logf("%d bytes printed on 2k pairs, %d on 20k", s, l)
	if l > 10*s {
		t.Errorf("watch -every 1000 printed %d bytes on 2k pairs and %d on 20k: more than 10x", s, l)
	}
}
