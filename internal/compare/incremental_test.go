package compare

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func testPairs(r *xrand.Source, n int) []stats.Pair {
	p := make([]stats.Pair, n)
	for i := range p {
		base := r.NormFloat64()
		a := base + 0.4 + 0.3*r.NormFloat64()
		b := base + 0.3*r.NormFloat64()
		if r.Bernoulli(0.15) {
			b = a // exercise the tie arm
		}
		p[i] = stats.Pair{A: a, B: b}
	}
	return p
}

// TestAnalysisStateBitIdentical: feeding pairs batch by batch — at any
// worker count — matches the single-shot analysis of the full sequence
// bit for bit, including the serialized accumulator state.
func TestAnalysisStateBitIdentical(t *testing.T) {
	r := xrand.New(17)
	crit := PAB{Gamma: 0.75, Level: 0.95, Bootstrap: 300}
	for trial := 0; trial < 6; trial++ {
		n := 5 + r.Intn(25)
		seed := r.Uint64()
		pairs := testPairs(r, n)

		ref, err := crit.NewAnalysis(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Extend(pairs); err != nil {
			t.Fatal(err)
		}
		refRes, err := ref.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		refSnap, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			for _, batch := range []int{1, 3, n} {
				st, err := crit.NewAnalysis(seed, w)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < n; lo += batch {
					if err := st.Extend(pairs[lo:min(lo+batch, n)]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := st.Evaluate()
				if err != nil {
					t.Fatal(err)
				}
				if res != refRes {
					t.Fatalf("workers=%d batch=%d: %+v != %+v", w, batch, res, refRes)
				}
				snap, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, refSnap) {
					t.Fatalf("workers=%d batch=%d: snapshot differs", w, batch)
				}
			}
		}
	}
}

// TestAnalysisStatePointMatchesKernel: the incremental point estimate and
// means are bit-identical to their one-shot counterparts (PABKernel.Stat
// and stats.Mean) — only the CI changes resampling scheme.
func TestAnalysisStatePointMatchesKernel(t *testing.T) {
	r := xrand.New(23)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(40)
		pairs := testPairs(r, n)
		st, err := PAB{}.NewAnalysis(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Extend(pairs); err != nil {
			t.Fatal(err)
		}
		if got, want := st.Point(), pabKernel.Stat(pairs); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Point() = %v, PABKernel.Stat = %v", got, want)
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i, p := range pairs {
			a[i], b[i] = p.A, p.B
		}
		ma, mb := st.Means()
		if math.Float64bits(ma) != math.Float64bits(stats.Mean(a)) ||
			math.Float64bits(mb) != math.Float64bits(stats.Mean(b)) {
			t.Fatalf("Means() = (%v, %v), want (%v, %v)", ma, mb, stats.Mean(a), stats.Mean(b))
		}
	}
}

// TestAnalysisStateSnapshotResume: snapshot mid-stream, restore, feed the
// rest — the final evaluation and state match the uninterrupted run.
func TestAnalysisStateSnapshotResume(t *testing.T) {
	r := xrand.New(29)
	crit := PAB{Bootstrap: 500}
	n := 24
	pairs := testPairs(r, n)

	ref, _ := crit.NewAnalysis(9, 1)
	if err := ref.Extend(pairs); err != nil {
		t.Fatal(err)
	}
	refSnap, _ := ref.Snapshot()

	half, _ := crit.NewAnalysis(9, 1)
	if err := half.Extend(pairs[:10]); err != nil {
		t.Fatal(err)
	}
	blob, err := half.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := crit.RestoreAnalysis(blob, 2)
	if err != nil {
		t.Fatal(err)
	}
	if restored.N() != 10 || restored.Seed() != 9 || restored.Bootstrap() != 500 {
		t.Fatalf("restored identity: n=%d seed=%d k=%d", restored.N(), restored.Seed(), restored.Bootstrap())
	}
	if err := restored.Extend(pairs[10:]); err != nil {
		t.Fatal(err)
	}
	got, _ := restored.Snapshot()
	if !bytes.Equal(got, refSnap) {
		t.Fatal("restore→extend differs from uninterrupted analysis")
	}
}

// TestRestoreAnalysisRejects: K mismatches, foreign accumulator kinds and
// corrupt blobs are rejected whole.
func TestRestoreAnalysisRejects(t *testing.T) {
	crit := PAB{Bootstrap: 100}
	st, _ := crit.NewAnalysis(1, 1)
	if err := st.Extend(testPairs(xrand.New(2), 8)); err != nil {
		t.Fatal(err)
	}
	good, _ := st.Snapshot()

	if _, err := (PAB{Bootstrap: 200}).RestoreAnalysis(good, 1); err == nil {
		t.Fatal("accepted a snapshot with mismatched K")
	}
	if _, err := crit.RestoreAnalysis(good[:20], 1); err == nil {
		t.Fatal("accepted a truncated snapshot")
	}
	if _, err := crit.RestoreAnalysis([]byte("not a snapshot at all......"), 1); err == nil {
		t.Fatal("accepted garbage")
	}
	// An accumulator blob of another kind (byte 1) wrapped in an analysis
	// header must be rejected as the wrong kernel.
	wrong := bytes.Clone(good)
	wrong[analysisHeaderSize+len("VBACC1")] = 1
	if _, err := crit.RestoreAnalysis(wrong, 1); err == nil {
		t.Fatal("accepted a foreign accumulator kind")
	}
	if _, err := crit.RestoreAnalysis(good, 1); err != nil {
		t.Fatalf("rejected its own snapshot: %v", err)
	}
	if _, err := (PAB{Bootstrap: -1}).NewAnalysis(1, 1); err == nil {
		t.Fatal("NewAnalysis accepted an invalid criterion")
	}
}

// TestAnalysisStateDecisions: the incremental three-zone decision agrees
// with the one-shot path on clearly separated and clearly tied data.
func TestAnalysisStateDecisions(t *testing.T) {
	r := xrand.New(37)
	crit := PAB{Gamma: 0.75}

	sep := make([]stats.Pair, 30)
	for i := range sep {
		sep[i] = stats.Pair{A: 1 + 0.05*r.NormFloat64(), B: 0.05 * r.NormFloat64()}
	}
	st, _ := crit.NewAnalysis(3, 1)
	if err := st.Extend(sep); err != nil {
		t.Fatal(err)
	}
	res, err := st.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Fatalf("separated pairs: %v, want significant and meaningful", res.Decision)
	}

	tied := make([]stats.Pair, 30)
	for i := range tied {
		v := r.NormFloat64()
		tied[i] = stats.Pair{A: v + 0.01*r.NormFloat64(), B: v + 0.01*r.NormFloat64()}
	}
	st2, _ := crit.NewAnalysis(3, 1)
	if err := st2.Extend(tied); err != nil {
		t.Fatal(err)
	}
	res2, err := st2.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Decision == SignificantAndMeaningful {
		t.Fatalf("noise-only pairs judged meaningful: %+v", res2)
	}

	// Too few pairs is an error, as on the one-shot path.
	empty, _ := crit.NewAnalysis(3, 1)
	if _, err := empty.Evaluate(); err == nil {
		t.Fatal("Evaluate accepted an empty state")
	}
}
