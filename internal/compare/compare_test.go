package compare

import (
	"math"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func makePairs(r *xrand.Source, n int, diff, sigma float64) []stats.Pair {
	pairs := make([]stats.Pair, n)
	for i := range pairs {
		pairs[i] = stats.Pair{
			A: r.Normal(diff, sigma),
			B: r.Normal(0, sigma),
		}
	}
	return pairs
}

func TestSinglePoint(t *testing.T) {
	c := SinglePoint{Delta: 0.5}
	if !c.Detects([]stats.Pair{{A: 1.0, B: 0.2}}) {
		t.Error("should detect: diff 0.8 > 0.5")
	}
	if c.Detects([]stats.Pair{{A: 0.6, B: 0.2}}) {
		t.Error("should not detect: diff 0.4 < 0.5")
	}
	if c.Detects(nil) {
		t.Error("empty pairs should not detect")
	}
	// Only the first pair matters.
	if c.Detects([]stats.Pair{{A: 0, B: 0}, {A: 9, B: 0}}) {
		t.Error("single point must ignore later pairs")
	}
}

func TestAverageThreshold(t *testing.T) {
	c := AverageThreshold{Delta: 0.5}
	pairs := []stats.Pair{{A: 1, B: 0}, {A: 1.4, B: 0.2}}
	// mean diff = (1 + 1.2)/2 = 1.1 > 0.5.
	if !c.Detects(pairs) {
		t.Error("should detect")
	}
	if c.Detects([]stats.Pair{{A: 0.4, B: 0}}) {
		t.Error("should not detect small diff")
	}
}

func TestPairedTDetectsConsistentDifference(t *testing.T) {
	r := xrand.New(1)
	pairs := make([]stats.Pair, 30)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = stats.Pair{A: base + 0.5 + 0.1*r.NormFloat64(), B: base}
	}
	if !(PairedT{Alpha: 0.05}).Detects(pairs) {
		t.Error("paired t missed a consistent paired difference")
	}
	// Identical pairs: no detection, no NaN panic.
	same := []stats.Pair{{A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	if (PairedT{Alpha: 0.05}).Detects(same) {
		t.Error("identical pairs should not detect")
	}
}

func TestPABEvaluateZones(t *testing.T) {
	r := xrand.New(2)

	// Strong dominance: significant and meaningful.
	strong := makePairs(r, 60, 3, 1)
	res, err := PAB{}.Evaluate(strong)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantAndMeaningful {
		t.Errorf("strong dominance decision = %v (PAB=%v CI=%+v)",
			res.Decision, res.PAB, res.CI)
	}
	if res.PAB < 0.9 {
		t.Errorf("strong dominance PAB = %v", res.PAB)
	}

	// No difference: not significant.
	null := makePairs(r, 60, 0, 1)
	res, err = PAB{}.Evaluate(null)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision == SignificantAndMeaningful {
		t.Errorf("null decision = %v (PAB=%v CI=%+v)", res.Decision, res.PAB, res.CI)
	}

	// Tiny but consistent difference with many samples: significant, not
	// meaningful. diff chosen so true PAB ≈ 0.58.
	small := makePairs(r, 4000, 0.29, 1)
	res, err = PAB{}.Evaluate(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != SignificantNotMeaningful {
		t.Errorf("small-effect decision = %v (PAB=%v CI=%+v)", res.Decision, res.PAB, res.CI)
	}
}

func TestPABDefaults(t *testing.T) {
	c := PAB{}
	if c.gamma() != DefaultGamma || c.level() != 0.95 || c.boots() != 1000 {
		t.Error("defaults wrong")
	}
	if _, err := c.Evaluate(nil); err == nil {
		t.Error("empty pairs should error")
	}
	if _, err := c.Evaluate([]stats.Pair{{A: 1, B: 0}}); err == nil {
		t.Error("single pair should error")
	}
}

func TestPABTieHandling(t *testing.T) {
	// All ties: PAB = 0.5 exactly, never significant.
	pairs := make([]stats.Pair, 40)
	for i := range pairs {
		pairs[i] = stats.Pair{A: 1, B: 1}
	}
	res, err := PAB{}.Evaluate(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if res.PAB != 0.5 || res.Decision != NotSignificant {
		t.Errorf("all-tied: PAB=%v decision=%v", res.PAB, res.Decision)
	}
}

func TestOracleCalibration(t *testing.T) {
	// Under H0 the oracle must false-positive at ≈ alpha.
	r := xrand.New(4)
	oracle := Oracle{Sigma: 1, Alpha: 0.05}
	const trials = 2000
	fp := 0
	for i := 0; i < trials; i++ {
		if oracle.Detects(makePairs(r, 50, 0, 1)) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate < 0.02 || rate > 0.09 {
		t.Errorf("oracle false-positive rate = %v, want ≈0.05", rate)
	}
	// Under strong H1 the oracle detects almost always.
	det := 0
	for i := 0; i < 200; i++ {
		if oracle.Detects(makePairs(r, 50, 1, 1)) {
			det++
		}
	}
	if det < 195 {
		t.Errorf("oracle power too low: %d/200", det)
	}
}

func TestPairs(t *testing.T) {
	p, err := Pairs([]float64{1, 2}, []float64{3, 4})
	if err != nil || p[1].A != 2 || p[1].B != 4 {
		t.Fatalf("Pairs = %v, %v", p, err)
	}
	if _, err := Pairs([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestDecisionString(t *testing.T) {
	if NotSignificant.String() == "" || SignificantAndMeaningful.String() == "" {
		t.Error("empty decision strings")
	}
	if Decision(99).String() == "" {
		t.Error("unknown decision should still render")
	}
}

func TestPABMonotoneInEffect(t *testing.T) {
	// Larger true differences should (weakly) raise the measured PAB.
	r := xrand.New(5)
	prev := -1.0
	for _, diff := range []float64{0, 1, 2, 4} {
		pairs := makePairs(r, 400, diff, 1)
		res, err := PAB{Bootstrap: 200}.Evaluate(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if res.PAB < prev-0.05 {
			t.Errorf("PAB not monotone: %v after %v", res.PAB, prev)
		}
		prev = res.PAB
	}
	if math.Abs(prev-1) > 0.02 {
		t.Errorf("PAB at 4σ separation = %v, want ≈1", prev)
	}
}

// TestPABValidation covers the degenerate-knob guard: an explicit negative
// bootstrap count or a confidence level outside (0,1) errors on every
// evaluation path instead of reaching the resampler (or silently answering
// with a NaN interval).
func TestPABValidation(t *testing.T) {
	r := xrand.New(9)
	pairs := makePairs(r, 10, 1, 1)
	a := []float64{1, 2, 3, 4}
	b := []float64{0, 1, 2, 3}
	bad := []PAB{
		{Bootstrap: -1},
		{Level: -0.5},
		{Level: 1},
		{Level: 1.5},
		{Level: math.NaN()},
	}
	for _, crit := range bad {
		if _, err := crit.Evaluate(pairs); err == nil {
			t.Errorf("Evaluate with %+v: expected error", crit)
		}
		if _, err := crit.NewAnalysis(); err == nil {
			t.Errorf("NewAnalysis with %+v: expected error", crit)
		}
		if _, err := crit.EvaluateUnpairedSharded(a, b, 1, 4); err == nil {
			t.Errorf("EvaluateUnpairedSharded with %+v: expected error", crit)
		}
		if crit.Detects(pairs) {
			t.Errorf("Detects with %+v: degenerate knobs must not detect", crit)
		}
	}
	// The zero values still mean "use the defaults".
	if _, err := (PAB{}).Evaluate(pairs); err != nil {
		t.Errorf("zero-valued PAB should default, got %v", err)
	}
}
