package compare

import (
	"runtime"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func shardedPairs(n int, diff float64, seed uint64) []stats.Pair {
	r := xrand.New(seed)
	pairs := make([]stats.Pair, n)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = stats.Pair{A: base + diff, B: base + 0.3*r.NormFloat64()}
	}
	return pairs
}

func TestEvaluateShardedWorkerInvariance(t *testing.T) {
	pairs := shardedPairs(29, 1.0, 3)
	ref, err := PAB{}.EvaluateSharded(pairs, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 64} {
		res, err := PAB{}.EvaluateSharded(pairs, 11, w)
		if err != nil {
			t.Fatal(err)
		}
		if res != ref {
			t.Errorf("workers=%d: %+v != serial reference %+v", w, res, ref)
		}
	}
	if ref.Decision != SignificantAndMeaningful {
		t.Errorf("dominant pairs judged %v", ref.Decision)
	}
}

func TestEvaluateShardedTooFewPairs(t *testing.T) {
	if _, err := (PAB{}).EvaluateSharded(nil, 1, 4); err == nil {
		t.Error("empty pairs accepted")
	}
	if _, err := (PAB{}).EvaluateSharded(shardedPairs(1, 1, 1), 1, 4); err == nil {
		t.Error("single pair accepted")
	}
}

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

func TestSaturatedGammaKeepsMeaningfulReachable(t *testing.T) {
	// Regression for the γ=1 clamp: at the saturation ceiling a total
	// winner (every pair A>B, CI [1,1]) must still be judged meaningful,
	// and the old clamp at exactly 1.0 made that impossible.
	pairs := make([]stats.Pair, 20)
	for i := range pairs {
		pairs[i] = stats.Pair{A: 1, B: 0}
	}
	res, err := PAB{Gamma: stats.GammaMax}.EvaluateSharded(pairs, 1, 4)
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
