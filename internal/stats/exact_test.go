package stats

import (
	"testing"

	"varbench/internal/xrand"
)

func TestClopperPearsonGolden(t *testing.T) {
	// Known values: k=8, n=10, 95% → [0.4439, 0.9748] (standard tables).
	ci := ClopperPearson(8, 10, 0.95)
	approxEq(t, "CP lo", ci.Lo, 0.4439, 0.001)
	approxEq(t, "CP hi", ci.Hi, 0.9748, 0.001)
	// Edge cases.
	ci = ClopperPearson(0, 10, 0.95)
	if ci.Lo != 0 {
		t.Errorf("k=0 lower bound = %v", ci.Lo)
	}
	approxEq(t, "CP k=0 hi", ci.Hi, 0.3085, 0.001)
	ci = ClopperPearson(10, 10, 0.95)
	if ci.Hi != 1 {
		t.Errorf("k=n upper bound = %v", ci.Hi)
	}
}

func TestClopperPearsonCoverage(t *testing.T) {
	// Exact intervals must cover at ≥ nominal level.
	r := xrand.New(2)
	const trials, n = 400, 25
	p := 0.75
	hits := 0
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if r.Bernoulli(p) {
				k++
			}
		}
		if contains(ClopperPearson(k, n, 0.95), p) {
			hits++
		}
	}
	if rate := float64(hits) / trials; rate < 0.93 {
		t.Errorf("Clopper-Pearson coverage %v below nominal", rate)
	}
}
