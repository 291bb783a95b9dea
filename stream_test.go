package varbench

import (
	"math"
	"testing"

	"varbench/store"
)

func streamScores() (a, b []float64) {
	a = []float64{0.91, 0.89, 0.93, 0.90, 0.92, 0.88, 0.94, 0.91, 0.90, 0.92, 0.87, 0.95}
	b = []float64{0.85, 0.86, 0.84, 0.87, 0.83, 0.85, 0.86, 0.84, 0.85, 0.83, 0.88, 0.82}
	return a, b
}

func comparisonsEqual(t *testing.T, got, want Comparison, what string) {
	t.Helper()
	if got != want &&
		!(math.Float64bits(got.PAB) == math.Float64bits(want.PAB) &&
			math.Float64bits(got.CILo) == math.Float64bits(want.CILo) &&
			math.Float64bits(got.CIHi) == math.Float64bits(want.CIHi)) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestStreamResumeByteIdentical: interrupt a store-backed stream mid-feed
// (Flush + drop), resume under the same pipeline ID, and require the final
// conclusion to be identical to an uninterrupted stream — with the replayed
// prefix skipped rather than recomputed.
func TestStreamResumeByteIdentical(t *testing.T) {
	a, b := streamScores()
	opts := func(st store.Backend) []Option {
		return []Option{WithSeed(11), WithGamma(0.65), WithStore(st), WithPipelineID("resume-test")}
	}

	// Reference: uninterrupted, no store.
	clean, err := NewStream(WithSeed(11), WithGamma(0.65))
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Extend(a, b)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := NewStream(opts(st)...)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 7
	if _, err := first.Extend(a[:cut], b[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := first.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.CountPrefix("analysis/") != 1 {
		t.Fatalf("flush wrote %d analysis records, want 1", st.CountPrefix("analysis/"))
	}
	st.Close() // simulate the process dying after the flush

	st2, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	resumed, err := NewStream(opts(st2)...)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Replaying() || resumed.N() != 0 {
		t.Fatalf("resumed stream: Replaying=%v N=%d, want replaying from 0", resumed.Replaying(), resumed.N())
	}
	// Replay the prefix the snapshot covers: no results yet.
	if res, err := resumed.Extend(a[:cut-1], b[:cut-1]); err != nil || res != nil {
		t.Fatalf("mid-replay extend: res=%v err=%v, want nil/nil", res, err)
	}
	got, err := resumed.Extend(a[cut-1:], b[cut-1:])
	if err != nil {
		t.Fatal(err)
	}
	comparisonsEqual(t, got.Comparison, want.Comparison, "resumed vs uninterrupted")
	if resumed.N() != len(a) {
		t.Fatalf("resumed stream consumed %d pairs, want %d", resumed.N(), len(a))
	}

	// The query-time knobs are not part of the fingerprint: a third stream
	// with a different γ resumes the same state.
	st2.Close()
	st3, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	requeried, err := NewStream(WithSeed(11), WithGamma(0.9), WithStore(st3), WithPipelineID("resume-test"))
	if err != nil {
		t.Fatal(err)
	}
	if !requeried.Replaying() {
		t.Fatal("changed γ invalidated the snapshot; it must not")
	}
}

// TestStreamStaleSnapshotSettles: when the persisted snapshot covers more
// pairs than the new stream has replayed, Result discards it and reports
// on exactly the pairs this stream saw.
func TestStreamStaleSnapshotSettles(t *testing.T) {
	a, b := streamScores()
	dir := t.TempDir()
	st, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewStream(WithSeed(5), WithStore(st), WithPipelineID("stale"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := long.Extend(a, b); err != nil {
		t.Fatal(err)
	}
	if err := long.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	short, err := NewStream(WithSeed(5), WithStore(st2), WithPipelineID("stale"))
	if err != nil {
		t.Fatal(err)
	}
	const have = 5
	if res, err := short.Extend(a[:have], b[:have]); err != nil || res != nil {
		t.Fatalf("replaying extend: res=%v err=%v, want nil/nil", res, err)
	}
	got, err := short.Result()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStream(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Extend(a[:have], b[:have])
	if err != nil {
		t.Fatal(err)
	}
	comparisonsEqual(t, got.Comparison, want.Comparison, "settled vs fresh over the same prefix")
	if got.Pairs != have {
		t.Fatalf("settled result covers %d pairs, want %d", got.Pairs, have)
	}
}

// TestStreamPoisonedSnapshotRebuilds: if the replayed scores disagree with
// the snapshot's hashed prefix — the file changed under the same pipeline
// ID — the state is rebuilt from the observed scores, not the snapshot.
func TestStreamPoisonedSnapshotRebuilds(t *testing.T) {
	a, b := streamScores()
	dir := t.TempDir()
	st, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := NewStream(WithSeed(9), WithStore(st), WithPipelineID("poison"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.Extend(a[:8], b[:8]); err != nil {
		t.Fatal(err)
	}
	if err := orig.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The "same" file now carries different scores.
	a2 := append([]float64(nil), a...)
	a2[3] += 0.5

	st2, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s, err := NewStream(WithSeed(9), WithStore(st2), WithPipelineID("poison"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Extend(a2, b)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStream(WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Extend(a2, b)
	if err != nil {
		t.Fatal(err)
	}
	comparisonsEqual(t, got.Comparison, want.Comparison, "rebuilt vs fresh over changed scores")
}
