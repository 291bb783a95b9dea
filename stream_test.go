package varbench

import (
	"encoding/json"
	"strings"
	"testing"

	"varbench/store"
)

func streamScores() (a, b []float64) {
	a = []float64{0.91, 0.89, 0.93, 0.90, 0.92, 0.88, 0.94, 0.91, 0.90, 0.92, 0.87, 0.95}
	b = []float64{0.85, 0.86, 0.84, 0.87, 0.83, 0.85, 0.86, 0.84, 0.85, 0.83, 0.88, 0.82}
	return a, b
}

// renderings returns a result's text and JSON reports.
func renderings(t *testing.T, res *Result) (text, js string) {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res.String(), string(data)
}

// TestStreamResumeByteIdentical: a stream cut short mid-feed resumes the
// way the Stream docs say, by a rerun that re-reads its input, and the
// rerun's reports are byte-identical to an uninterrupted stream's, whatever
// chunks either run reads. The cut run's last report covers exactly the
// prefix it read.
func TestStreamResumeByteIdentical(t *testing.T) {
	a, b := streamScores()
	open := func() *Stream {
		t.Helper()
		s, err := NewStream(WithSeed(11), WithGamma(0.65))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	clean := open()
	want, err := clean.Extend(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantText, wantJSON := renderings(t, want)

	// The interrupted run reads a prefix and is dropped.
	const cut = 7
	first := open()
	part, err := first.Extend(a[:cut], b[:cut])
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := open().Extend(a[:cut], b[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if first.N() != cut || part.Comparison != prefix.Comparison {
		t.Fatalf("cut run: n=%d %+v, want n=%d %+v", first.N(), part.Comparison, cut, prefix.Comparison)
	}

	// The rerun re-reads the whole input, in chunks that straddle the cut.
	rerun := open()
	var got *Result
	for lo := 0; lo < len(a); lo += 5 {
		hi := min(lo+5, len(a))
		if got, err = rerun.Extend(a[lo:hi], b[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if rerun.N() != len(a) {
		t.Fatalf("rerun consumed %d pairs, want %d", rerun.N(), len(a))
	}
	gotText, gotJSON := renderings(t, got)
	if gotText != wantText {
		t.Errorf("rerun text report differs:\n got %s\nwant %s", gotText, wantText)
	}
	if gotJSON != wantJSON {
		t.Errorf("rerun JSON report differs:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestStreamRejectsStore: a stream has nothing to persist — its analysis
// is three counts and two score sums, rebuilt by re-reading its input —
// so NewStream refuses a store and says why, as it refuses WithUnpaired.
func TestStreamRejectsStore(t *testing.T) {
	st := store.NewMem()
	defer st.Close()
	withStore := func(e *Experiment) { e.Store, e.PipelineID = st, "resume-test" }
	_, err := NewStream(WithSeed(11), withStore)
	if err == nil || !strings.Contains(err.Error(), "three counts and two score sums") {
		t.Fatalf("NewStream with a store = %v, want an error naming the counts", err)
	}
	if s, err := NewStream(WithSeed(11)); err != nil || s.Flush() != nil {
		t.Fatalf("storeless stream: %v; Flush must be a no-op", err)
	}
}
