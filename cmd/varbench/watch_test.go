package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"varbench"
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

// BenchmarkWatchIngest measures watch's ingestion path, pairReader.feed
// and then Stream.Add, per chunk of 8 score lines against a live stream.
// Like watch between renders, it computes no interval, so it allocates
// nothing; the bench gate holds it at 0 allocs/op.
func BenchmarkWatchIngest(bm *testing.B) {
	const batch = 8
	var chunk []byte
	for i := 0; i < batch; i++ {
		chunk = fmt.Appendf(chunk, "0.9%d,0.8%d\n", i, (i+3)%10)
	}
	s, err := varbench.NewStream(varbench.WithSeed(7))
	if err != nil {
		bm.Fatal(err)
	}
	r := &pairReader{
		a:    make([]float64, 0, batch),
		b:    make([]float64, 0, batch),
		warn: func(err error) { bm.Fatal(err) },
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		r.feed(chunk)
		if err := s.Add(r.a, r.b); err != nil {
			bm.Fatal(err)
		}
		r.a, r.b = r.a[:0], r.b[:0]
	}
	if s.N() != batch*bm.N {
		bm.Fatalf("stream holds %d pairs, want %d", s.N(), batch*bm.N)
	}
}

// FuzzWatchIngest: watch's reader, fed arbitrary bytes cut at one or two
// arbitrary points, reads the same pairs, bit for bit and in order, and
// counts the same malformed lines as the per-line path over the whole
// input: LineTailer.Feed and ParseScorePair, then the unterminated last
// line. CI runs it as a short fuzz-smoke; the seeds run as a plain test.
func FuzzWatchIngest(f *testing.F) {
	line := []byte("0.5,0.25\n")
	for cut := 0; cut <= len(line); cut++ {
		f.Add(line, cut, cut)
	}
	for _, seed := range []string{
		"0.5,0.25\r\n0.125,0.5\r\n",
		"{\"a\": 0.5, \"b\": 0.25}\n0.5,0.25\n",
		" 0.5 , 0.25 \n0.5,\t0.25\n0.5 ,0.25\n",
		"1e5,2\n2,1e5\n",
		"0.1234567890123456,0.5\n0.5,1234567890123456\n0.123456789012345,1\n",
		"0.5,0.25\n0.75,0.5",
		"0.5\x00,0.25\n\x00\n0.5,0.25\x00\n",
		"a,b\n# c\n\n0.5,0.25,0.1\n-0.5,+.5\n1.5.3,2\nNaN,1\n0.5,\n,0.5\n",
		"0.76833333333333331, 0.5\n0.5,0.12345678901234567e-3\n1234567890123456,0.5,x\r\n+,1\n1,+\n",
	} {
		f.Add([]byte(seed), 3, 11)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 int) {
		var want []float64
		wantBad := 0
		var tailer varbench.LineTailer
		emit := func(line []byte) error {
			a, b, ok, err := varbench.ParseScorePair(line)
			if err != nil {
				wantBad++
			} else if ok {
				want = append(want, a, b)
			}
			return nil
		}
		if err := tailer.Feed(data, emit); err != nil {
			t.Fatal(err)
		}
		if rem := tailer.Remainder(); len(rem) > 0 {
			_ = emit(rem)
		}

		cuts := []int{ingestCut(cut1, len(data)), ingestCut(cut2, len(data))}
		slices.Sort(cuts)
		var got []float64
		warned := 0
		r := &pairReader{warn: func(error) { warned++ }}
		for _, chunk := range [][]byte{data[:cuts[0]], data[cuts[0]:cuts[1]], data[cuts[1]:]} {
			if len(chunk) > 0 { // as watch feeds its reads
				r.feed(chunk)
			}
			for i := range r.a {
				got = append(got, r.a[i], r.b[i])
			}
			r.a, r.b = r.a[:0], r.b[:0]
		}
		r.end()
		for i := range r.a {
			got = append(got, r.a[i], r.b[i])
		}
		if r.bad != wantBad || warned != wantBad {
			t.Fatalf("cuts %v: %d malformed lines (%d warnings), want %d", cuts, r.bad, warned, wantBad)
		}
		if len(got) != len(want) {
			t.Fatalf("cuts %v: %d pairs, want %d", cuts, len(got)/2, len(want)/2)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cuts %v: pair %d side %d = %v, want %v", cuts, i/2, i%2, got[i], want[i])
			}
		}
	})
}

// ingestCut maps an arbitrary int to a cut point in [0, n].
func ingestCut(c, n int) int {
	c %= n + 1
	if c < 0 {
		c += n + 1
	}
	return c
}
