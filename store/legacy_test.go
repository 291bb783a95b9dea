package store

// Tests for the legacy JSONL line format: Dump prints it as a read-only
// view of a store, and a trials.jsonl log the retired JSONL engine left in
// a store directory is never read or touched.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLeftoverLegacyLogIsIgnored: segments are the only files an open
// reads. A trials.jsonl in the directory keeps its name and bytes through
// an open, a Put and a Close, twice over, and none of its cells is served.
func TestLeftoverLegacyLogIsIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	failure := FailureKey(1, "", 0, "A")
	legacy := []byte(`{"key":"a","fp":"f","score":"1"}` + "\n" +
		`{"key":"` + failure + `","fp":"f","value":{"attempts":3}}` + "\n")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	for open := 1; open <= 2; open++ {
		s, err := OpenSegLog(dir)
		if err != nil {
			t.Fatalf("open %d: %v", open, err)
		}
		if v, ok := s.Get("a", "f"); ok {
			t.Errorf("open %d served the legacy log's score: %v", open, v)
		}
		var payload map[string]any
		if ok, err := s.GetJSON(failure, "f", &payload); ok || err != nil {
			t.Errorf("open %d served the legacy log's payload: %v, %v", open, payload, err)
		}
		if n := s.Len(); n != open-1 {
			t.Errorf("open %d: Len = %d, want %d (only the Puts of earlier opens)", open, n, open-1)
		}
		if err := s.Put(TrialKey(1, "", open, "A"), "f", float64(open)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, legacy) {
			t.Fatalf("after open %d: trials.jsonl = %q, %v; want its original bytes", open, got, err)
		}
	}
	if _, err := os.Stat(path + ".imported"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("trials.jsonl.imported exists: %v", err)
	}
}

// TestDumpIsSortedAndBitExact: a dump prints every cell as one legacy line
// in (key, fingerprint) order. Each score parses back to the bits that
// were Put, values JSON cannot write as numbers and the smallest
// subnormal included, and a JSON payload is printed as PutJSON stored it.
func TestDumpIsSortedAndBitExact(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores := []float64{0.1 + 0.2, math.NaN(), math.Inf(-1), math.Copysign(0, -1), 5e-324}
	for i, v := range scores {
		if err := s.Put(TrialKey(3, "ds", i, "B"), "fp2", v); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(TrialKey(3, "ds", i, "B"), "fp1", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutJSON("analysis/seed=3/scope=ds", "fp", map[string]any{"n": 5, "p": math.NaN(), "s": "<&>"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Dump(dir, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1+2*len(scores) {
		t.Fatalf("dump has %d lines, want %d:\n%s", len(lines), 1+2*len(scores), buf.String())
	}
	if want := `{"key":"analysis/seed=3/scope=ds","fp":"fp","value":{"n":5,"p":null,"s":"\u003c\u0026\u003e"}}`; lines[0] != want {
		t.Errorf("payload line = %s, want %s", lines[0], want)
	}
	for i, v := range scores {
		for j, want := range []struct {
			fp    string
			score float64
		}{{"fp1", float64(i)}, {"fp2", v}} {
			line := lines[1+2*i+j]
			var rec record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			if rec.Key != TrialKey(3, "ds", i, "B") || rec.Fingerprint != want.fp || rec.Value != nil {
				t.Errorf("line %d = %s, want cell (%s, %s) with a score: not sorted by (key, fingerprint)",
					1+2*i+j, line, TrialKey(3, "ds", i, "B"), want.fp)
				continue
			}
			got, err := strconv.ParseFloat(rec.Score, 64)
			if err != nil || math.Float64bits(got) != math.Float64bits(want.score) {
				t.Errorf("line %s: score parses to %x (%v), want the bits %x that were Put",
					line, math.Float64bits(got), err, math.Float64bits(want.score))
			}
		}
	}
}
