package varbench

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"varbench/internal/xrand"
)

// feedChunked runs data through a LineTailer in chunks of the given size
// and collects the emitted lines (plus the remainder as a final line when
// asked), counting parse outcomes the way the watch command does.
func tailLines(t *testing.T, data []byte, chunk int) [][]byte {
	t.Helper()
	var tailer LineTailer
	var lines [][]byte
	emit := func(line []byte) error {
		lines = append(lines, bytes.Clone(line))
		return nil
	}
	for lo := 0; lo < len(data); lo += chunk {
		if err := tailer.Feed(data[lo:min(lo+chunk, len(data))], emit); err != nil {
			t.Fatal(err)
		}
	}
	if rem := tailer.Remainder(); len(rem) > 0 {
		lines = append(lines, bytes.Clone(rem))
	}
	return lines
}

// TestLineTailerChunkingInvariant: the emitted line sequence must not
// depend on how the byte stream was chunked — a tail read can split lines
// at any byte.
func TestLineTailerChunkingInvariant(t *testing.T) {
	data := []byte("0.1,0.2\n# comment\n\n0.3,0.4\r\n{\"a\":0.5,\"b\":0.6}\ngarbage here\n0.7,")
	ref := tailLines(t, data, len(data))
	for _, chunk := range []int{1, 2, 3, 7, 16} {
		got := tailLines(t, data, chunk)
		if len(got) != len(ref) {
			t.Fatalf("chunk=%d: %d lines, want %d", chunk, len(got), len(ref))
		}
		for i := range got {
			if !bytes.Equal(got[i], ref[i]) {
				t.Fatalf("chunk=%d line %d: %q != %q", chunk, i, got[i], ref[i])
			}
		}
	}
	if string(ref[len(ref)-1]) != "0.7," {
		t.Fatalf("remainder not preserved: %q", ref[len(ref)-1])
	}
}

// TestLineTailerEmitError: a failing emit stops the scan, and the already
// consumed lines are not replayed by the next Feed — wherever the stream
// is split and whichever line fails, including a line completed from the
// buffered partial line of an earlier chunk.
func TestLineTailerEmitError(t *testing.T) {
	data := []byte("one\ntwo\nthree\n")
	boom := fmt.Errorf("boom")
	for split := 0; split <= len(data); split++ {
		for fail := 1; fail <= 3; fail++ {
			var tailer LineTailer
			var seen []string
			emit := func(line []byte) error {
				seen = append(seen, string(line))
				if len(seen) == fail {
					return boom
				}
				return nil
			}
			errs := 0
			for _, chunk := range [][]byte{data[:split], data[split:], nil} {
				if err := tailer.Feed(chunk, emit); err == boom {
					errs++
				} else if err != nil {
					t.Fatalf("split %d fail %d: Feed returned %v", split, fail, err)
				}
			}
			if got := fmt.Sprint(seen); errs != 1 || got != "[one two three]" {
				t.Fatalf("split %d fail %d: %d errors, lines %v", split, fail, errs, seen)
			}
		}
	}
}

// TestParseScorePair pins the two accepted syntaxes, the skip rules and
// the error cases.
func TestParseScorePair(t *testing.T) {
	cases := []struct {
		line string
		a, b float64
		ok   bool
		err  bool
	}{
		{"0.91,0.87", 0.91, 0.87, true, false},
		{" 1e-3 ,\t2 ", 1e-3, 2, true, false},
		{"0.5,0.6,extra,columns", 0.5, 0.6, true, false},
		{"-0.5,+.5", -0.5, 0.5, true, false},
		{"0.5,0.6 ", 0.5, 0.6, true, false},
		{"0.5,0.6x", 0, 0, false, true},
		{"0.5x,0.6", 0, 0, false, true},
		{`{"a": 0.91, "b": 0.87}`, 0.91, 0.87, true, false},
		{`{"b": 1, "a": 2}`, 2, 1, true, false},
		{"", 0, 0, false, false},
		{"   ", 0, 0, false, false},
		{"# a comment", 0, 0, false, false},
		{"scoreA,scoreB", 0, 0, false, false}, // digit-free header
		{"alpha", 0, 0, false, false},         // digit-free stray label
		{"0.5", 0, 0, false, true},            // one column with digits
		{"0.5,bogus7", 0, 0, false, true},
		{`{"a": 0.91}`, 0, 0, false, true},
		{`{"a": bad`, 0, 0, false, true},
		{"NaN,0.5", 0, 0, false, true},
		{"+Inf,0.5", 0, 0, false, true},
		{`{"a": 1, "b": null}`, 0, 0, false, true},
	}
	for _, c := range cases {
		a, b, ok, err := ParseScorePair([]byte(c.line))
		if ok != c.ok || (err != nil) != c.err {
			t.Errorf("ParseScorePair(%q) = ok=%v err=%v, want ok=%v err=%v", c.line, ok, err, c.ok, c.err)
			continue
		}
		if ok && (a != c.a || b != c.b) {
			t.Errorf("ParseScorePair(%q) = (%v, %v), want (%v, %v)", c.line, a, b, c.a, c.b)
		}
	}
}

// checkParseScore fails unless ParseScore(field) returns what
// strconv.ParseFloat returns: the same bits and the same error.
func checkParseScore(t *testing.T, field []byte) {
	t.Helper()
	got, gotErr := ParseScore(field)
	want, wantErr := strconv.ParseFloat(string(field), 64)
	if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("ParseScore(%q) = %v (%#x), %v; strconv says %v (%#x), %v",
			field, got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
	}
}

// TestParseScoreMatchesStrconv runs ParseScore's fast path, plain decimals
// of up to 15 digits with the point anywhere, and the lengths just past it
// against strconv.
func TestParseScoreMatchesStrconv(t *testing.T) {
	r := xrand.New(22)
	var field []byte
	for i := 0; i < 200000; i++ {
		digits := 1 + r.Intn(17)
		field = field[:0]
		switch r.Intn(3) {
		case 0:
			field = append(field, '-')
		case 1:
			field = append(field, '+')
		}
		dot := r.Intn(digits + 2) // digits+1: no point
		for d := 0; d <= digits; d++ {
			if d == dot {
				field = append(field, '.')
			}
			if d < digits {
				field = append(field, byte('0'+r.Intn(10)))
			}
		}
		checkParseScore(t, field)
	}
}

// FuzzParseScore: on any bytes, ParseScore and strconv.ParseFloat return
// the same bits and fail alike.
func FuzzParseScore(f *testing.F) {
	for _, seed := range []string{"-0", "+.5", "5.", ".", "123456789012345", "1234567890123456",
		"0000000000000000001", "1e5", "1_0", "NaN", "0x1p-2"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkParseScore)
}

// FuzzWatchTailer: for arbitrary bytes and an arbitrary split point, the
// tailer + parser pipeline must emit the same line sequence regardless of
// chunking and must never panic on garbage. This is the partial-line /
// garbage robustness target the watch command relies on (CI runs it as a
// short fuzz-smoke; the seed corpus runs everywhere as a plain test).
func FuzzWatchTailer(f *testing.F) {
	f.Add([]byte("0.1,0.2\n0.3,0.4\n"), 3)
	f.Add([]byte("{\"a\":1,\"b\":2}\r\n#x\n9,"), 1)
	f.Add([]byte("garbage\nNaN,1\n1,1\n"), 5)
	f.Add([]byte{0, 10, 255, 10, 44, 10}, 2)
	f.Fuzz(func(t *testing.T, data []byte, split int) {
		parseAll := func(chunks [][]byte) (lines []string, pairs int, bad int) {
			var tailer LineTailer
			emit := func(line []byte) error {
				lines = append(lines, string(line))
				if _, _, ok, err := ParseScorePair(line); err != nil {
					bad++
				} else if ok {
					pairs++
				}
				return nil
			}
			for _, c := range chunks {
				if err := tailer.Feed(c, emit); err != nil {
					t.Fatalf("emit never fails here: %v", err)
				}
			}
			if rem := tailer.Remainder(); len(rem) > 0 {
				if err := emit(bytes.Clone(rem)); err != nil {
					t.Fatal(err)
				}
			}
			return lines, pairs, bad
		}
		if split < 0 {
			split = -split
		}
		split %= len(data) + 1
		one, p1, b1 := parseAll([][]byte{data})
		two, p2, b2 := parseAll([][]byte{data[:split], data[split:]})
		if fmt.Sprint(one) != fmt.Sprint(two) || p1 != p2 || b1 != b2 {
			t.Fatalf("chunking changed the parse: %v pairs=%d bad=%d vs %v pairs=%d bad=%d",
				one, p1, b1, two, p2, b2)
		}
	})
}

// TestStreamMatchesAnalyze: a stream fed in dribs and drabs reaches the
// same conclusion as itself fed in one call, and as Analyze on the same
// scores — at any seed, since a paired verdict draws no randomness. So do
// two Adds split anywhere and one Result.
func TestStreamMatchesAnalyze(t *testing.T) {
	a := []float64{0.91, 0.89, 0.93, 0.90, 0.92, 0.88, 0.94, 0.91, 0.90, 0.92}
	b := []float64{0.85, 0.86, 0.84, 0.87, 0.83, 0.85, 0.86, 0.84, 0.85, 0.83}

	oneShot, err := NewStream(WithSeed(3), WithGamma(0.7))
	if err != nil {
		t.Fatal(err)
	}
	resOne, err := oneShot.Extend(a, b)
	if err != nil || resOne == nil {
		t.Fatalf("one-shot extend: %v (res=%v)", err, resOne)
	}

	dribs, err := NewStream(WithSeed(4), WithGamma(0.7))
	if err != nil {
		t.Fatal(err)
	}
	var resDribs *Result
	for i := range a {
		if resDribs, err = dribs.Extend(a[i:i+1], b[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if resDribs.Comparison != resOne.Comparison {
		t.Fatalf("drib-fed stream differs:\n%+v\n%+v", resDribs.Comparison, resOne.Comparison)
	}
	// A stream keeps no score history, so its results carry no scores.
	if d := resDribs.Datasets[0]; d.ScoresA != nil || d.ScoresB != nil || d.Pairs != len(a) {
		t.Fatalf("stream result carries scores or the wrong count: %+v", d)
	}

	ref, err := Analyze(a, b, WithSeed(5), WithGamma(0.7))
	if err != nil {
		t.Fatal(err)
	}
	if c, rc := resOne.Comparison, ref.Comparison; c != rc || math.IsNaN(c.CILo) {
		t.Fatalf("stream differs from Analyze:\n%+v\n%+v", c, rc)
	}

	// Add computes no interval, so where the pairs split cannot matter.
	for split := 0; split <= len(a); split++ {
		s, err := NewStream(WithSeed(6), WithGamma(0.7))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Add(a[:split], b[:split]); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(a[split:], b[split:]); err != nil {
			t.Fatal(err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Comparison != resOne.Comparison || res.Comparison != ref.Comparison {
			t.Fatalf("Add split at %d, then Result:\n%+v\nExtend:\n%+v\nAnalyze:\n%+v",
				split, res.Comparison, resOne.Comparison, ref.Comparison)
		}
	}

	// A NaN anywhere in one Add fails the whole call before any pair of it
	// is added, as Extend does.
	for pos := range a {
		for side := 0; side < 2; side++ {
			s, err := NewStream()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Add(a[:2], b[:2]); err != nil {
				t.Fatal(err)
			}
			bad := [2][]float64{slices.Clone(a), slices.Clone(b)}
			bad[side][pos] = math.NaN()
			if err := s.Add(bad[0], bad[1]); err == nil || s.N() != 2 {
				t.Fatalf("NaN at %c[%d]: Add error %v, N = %d, want an error and N = 2", 'A'+side, pos, err, s.N())
			}
		}
	}

	// Below two pairs: no result, no error.
	early, _ := NewStream(WithSeed(3))
	if res, err := early.Extend(a[:1], b[:1]); err != nil || res != nil {
		t.Fatalf("1-pair stream: res=%v err=%v, want nil/nil", res, err)
	}
	if _, err := early.Extend(a[:2], b[:1]); err == nil {
		t.Fatal("unpaired extend accepted")
	}
}

// TestStreamClose: a closed stream refuses further pairs through Extend
// and Add, and a second Close is harmless.
func TestStreamClose(t *testing.T) {
	s, err := NewStream(WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	a := []float64{0.9, 0.8, 0.95}
	b := []float64{0.1, 0.2, 0.15}
	if _, err := s.Extend(a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if _, err := s.Extend(a[:1], b[:1]); err == nil {
		t.Fatal("extend after Close accepted")
	}
	if err := s.Add(a[:1], b[:1]); err == nil {
		t.Fatal("add after Close accepted")
	}
	if s.N() != len(a) {
		t.Errorf("N = %d after a refused extend, want %d", s.N(), len(a))
	}
}

// BenchmarkParseScorePair measures the line parser alone, on the 8 CSV
// lines per op that cmd/varbench's BenchmarkWatchIngest feeds watch's
// reader. The bench gate holds it at 0 allocs/op.
func BenchmarkParseScorePair(bm *testing.B) {
	var lines [][]byte
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Appendf(nil, "0.9%d,0.8%d", i, (i+3)%10))
	}
	var sum float64
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		for _, line := range lines {
			a, b, ok, err := ParseScorePair(line)
			if err != nil || !ok {
				bm.Fatalf("%q: ok=%v err=%v", line, ok, err)
			}
			sum += a - b
		}
	}
	parseSink = sum
}

// parseSink keeps BenchmarkParseScorePair's parses live.
var parseSink float64
