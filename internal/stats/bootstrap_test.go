package stats

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

// meanDiff is the difference of the sample means, a closure statistic for
// the buffered bootstrap path.
func meanDiff(a, b []float64) float64 { return Mean(a) - Mean(b) }

// contains reports whether v lies inside ci.
func contains(ci CI, v float64) bool { return v >= ci.Lo && v <= ci.Hi }

func TestPercentileBootstrapCoversMean(t *testing.T) {
	// Coverage check: a 95% CI for a mean difference should contain the
	// true difference in roughly 95% of repetitions.
	r := xrand.New(1)
	const reps = 200
	hits := 0
	a, b := make([]float64, 40), make([]float64, 40)
	for rep := 0; rep < reps; rep++ {
		for i := range a {
			a[i], b[i] = r.Normal(10, 2), r.Normal(0, 1)
		}
		ci := TwoSampleBootstrapKernel(a, b, meanDiff, 500, 0.95, r.Uint64(), 1)
		if contains(ci, 10) {
			hits++
		}
	}
	rate := float64(hits) / reps
	if rate < 0.88 || rate > 0.995 {
		t.Errorf("bootstrap CI coverage = %v, want ≈0.95", rate)
	}
}

func TestPercentileBootstrapOrdering(t *testing.T) {
	f := func(w, tie, l uint8, level float64) bool {
		level = 0.5 + 0.49*math.Abs(math.Sin(level))
		ci := PABCountsCI(int(w), int(tie), int(l), level)
		if w == 0 && tie == 0 && l == 0 {
			return math.IsNaN(ci.Lo)
		}
		return 0 <= ci.Lo && ci.Lo <= ci.Hi && ci.Hi <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPairedPercentileBootstrapPAB(t *testing.T) {
	// A dominates B: the exact paired percentile CI for P(A>B) sits well
	// above 0.5 and inside [0, 1].
	r := xrand.New(7)
	a, b := make([]float64, 50), make([]float64, 50)
	w, l := 0, 0
	for i := range a {
		base := r.NormFloat64()
		a[i], b[i] = base+1.5, base+0.3*r.NormFloat64()
		if a[i] > b[i] {
			w++
		} else {
			l++
		}
	}
	ci := PABCountsCI(w, 0, l, 0.95)
	if ci.Lo <= 0.5 {
		t.Errorf("CI.Lo = %v, want > 0.5 for dominated pairs", ci.Lo)
	}
	if est := float64(w) / float64(len(a)); ci.Hi > 1 || ci.Lo < 0 || !contains(ci, est) {
		t.Errorf("CI %+v out of [0,1] or missing the point estimate %v", ci, est)
	}
}

func TestNoetherSampleSizePaper(t *testing.T) {
	// Appendix C.3: α=β=0.05, γ=0.75 ⇒ N = 29.
	if n := NoetherSampleSize(0.75, 0.05, 0.05); n != 29 {
		t.Errorf("Noether(0.75, .05, .05) = %d, want 29", n)
	}
	// Figure C.1: detecting below γ=0.6 is impractical (N > 100).
	if n := NoetherSampleSize(0.6, 0.05, 0.05); n <= 100 {
		t.Errorf("Noether(0.6) = %d, want > 100", n)
	}
	// γ=0.55 needs > 500 (the paper: "above 500 ... below 0.55").
	if n := NoetherSampleSize(0.55, 0.05, 0.05); n <= 500 {
		t.Errorf("Noether(0.55) = %d, want > 500", n)
	}
}

func TestNoetherMonotone(t *testing.T) {
	prev := math.MaxInt32
	for g := 0.55; g < 1.0; g += 0.05 {
		n := NoetherSampleSize(g, 0.05, 0.05)
		if n > prev {
			t.Fatalf("Noether N not decreasing in γ at %v", g)
		}
		prev = n
	}
	if NoetherSampleSize(0.5, 0.05, 0.05) != math.MaxInt32 {
		t.Error("γ=0.5 should be undetectable")
	}
}

func TestRegressionThroughOrigin(t *testing.T) {
	x := []float64{1, 2, 4}
	y := []float64{2, 4, 8}
	fit := RegressionThroughOrigin(x, y)
	approxEq(t, "slope", fit.Slope, 2, 1e-12)
	approxEq(t, "R2", fit.R2, 1, 1e-12)
}

func TestGammaBonferroni(t *testing.T) {
	g1 := GammaBonferroni(0.75, 0.05, 1)
	if g1 != 0.75 {
		t.Errorf("m=1 should not change γ: %v", g1)
	}
	g10 := GammaBonferroni(0.75, 0.05, 10)
	if g10 <= 0.75 || g10 > 1 {
		t.Errorf("m=10 γ = %v, want in (0.75, 1]", g10)
	}
	g100 := GammaBonferroni(0.75, 0.05, 100)
	if g100 <= g10 {
		t.Errorf("γ should grow with m: %v vs %v", g100, g10)
	}
}
