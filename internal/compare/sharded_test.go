package compare

import (
	"runtime"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func TestEvaluateUnpairedShardedWorkerInvariance(t *testing.T) {
	r := xrand.New(5)
	a := make([]float64, 30)
	b := make([]float64, 25)
	for i := range a {
		a[i] = r.NormFloat64() + 1
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	ref, err := PAB{}.EvaluateUnpairedSharded(a, b, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		res, err := PAB{}.EvaluateUnpairedSharded(a, b, 13, w)
		if err != nil {
			t.Fatal(err)
		}
		if res != ref {
			t.Errorf("workers=%d: %+v != serial reference %+v", w, res, ref)
		}
	}
	if _, err := (PAB{}).EvaluateUnpairedSharded(a[:1], b, 13, 2); err == nil {
		t.Error("single measure accepted")
	}
}

// TestEvaluateShardedTooFewPairs: the sharded unpaired evaluation rejects
// an empty or single-measure side on either algorithm, at any worker
// count, before it resamples anything, as the paired Evaluate rejects
// fewer than two pairs.
func TestEvaluateShardedTooFewPairs(t *testing.T) {
	two := []float64{1, 2}
	for _, w := range []int{1, 4} {
		for _, short := range [][]float64{nil, {1}} {
			if _, err := (PAB{}).EvaluateUnpairedSharded(short, two, 1, w); err == nil {
				t.Errorf("workers=%d: A side of %d measures accepted", w, len(short))
			}
			if _, err := (PAB{}).EvaluateUnpairedSharded(two, short, 1, w); err == nil {
				t.Errorf("workers=%d: B side of %d measures accepted", w, len(short))
			}
		}
		if _, err := (PAB{}).EvaluateUnpairedSharded(two, two, 1, w); err != nil {
			t.Errorf("workers=%d: two measures per side rejected: %v", w, err)
		}
	}
	if _, err := (PAB{}).Evaluate(nil); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := (PAB{}).Evaluate([]stats.Pair{{A: 1, B: 0}}); err == nil {
		t.Error("single pair accepted")
	}
}

func TestSaturatedGammaKeepsMeaningfulReachable(t *testing.T) {
	// Regression for the γ=1 clamp: at the saturation ceiling a total
	// winner (every pair A>B, CI [1,1]) must still be judged meaningful,
	// and the old clamp at exactly 1.0 made that impossible.
	pairs := make([]stats.Pair, 20)
	for i := range pairs {
		pairs[i] = stats.Pair{A: 1, B: 0}
	}
	res, err := PAB{Gamma: stats.GammaMax}.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Errorf("total winner at saturated γ judged %v", res.Decision)
	}
	if res.CI.Lo <= stats.GammaMax {
		t.Errorf("CI.Lo = %v, expected the degenerate [1,1] interval", res.CI.Lo)
	}
}
