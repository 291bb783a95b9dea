package varbench

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"varbench/internal/xrand"
)

// TestCollectPairedSharesSeeds: paired collection hands trial i of both
// pipelines the same seed, so shared noise cancels, and distinct trials
// distinct seeds.
func TestCollectPairedSharesSeeds(t *testing.T) {
	var seedsA, seedsB []uint64
	a := func(seed uint64) (float64, error) { seedsA = append(seedsA, seed); return 1, nil }
	b := func(seed uint64) (float64, error) { seedsB = append(seedsB, seed); return 0, nil }
	e := Experiment{A: a, B: b, MaxRuns: 5, Seed: 42, EarlyStop: EarlyStopOff, Parallelism: 1}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 5 || len(seedsA) != 5 || len(seedsB) != 5 {
		t.Fatalf("collected %d pairs from %d A and %d B calls, want 5 each", res.Pairs, len(seedsA), len(seedsB))
	}
	for i := range seedsA {
		if seedsA[i] != seedsB[i] {
			t.Fatal("pairing broken: different seeds for A and B")
		}
	}
	seen := map[uint64]bool{}
	for _, s := range seedsA {
		if seen[s] {
			t.Fatal("seed reuse across runs")
		}
		seen[s] = true
	}
}

func TestCollectPairedPropagatesErrors(t *testing.T) {
	bad := func(uint64) (float64, error) { return 0, errSentinel }
	ok := func(uint64) (float64, error) { return 1, nil }
	for name, e := range map[string]Experiment{
		"A": {A: bad, B: ok, Parallelism: 1},
		"B": {A: ok, B: bad, Parallelism: 1},
	} {
		if _, err := e.Run(context.Background()); !errors.Is(err, errSentinel) {
			t.Errorf("%s error not propagated: %v", name, err)
		}
	}
	if _, err := (&Experiment{A: ok, B: ok, MaxRuns: -1}).Run(context.Background()); err == nil {
		t.Error("negative run count should error")
	}
}

type sentinel struct{}

func (sentinel) Error() string { return "boom" }

var errSentinel = sentinel{}

func TestCompareDominantAlgorithm(t *testing.T) {
	r := xrand.New(1)
	n := 40
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := r.NormFloat64()
		a[i] = base + 2
		b[i] = base + 0.2*r.NormFloat64()
	}
	res, err := Analyze(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != n || len(res.Datasets) != 1 {
		t.Errorf("result shape: %d pairs, %d datasets", res.Pairs, len(res.Datasets))
	}
	c := res.Comparison
	if c.Conclusion != SignificantAndMeaningful {
		t.Errorf("conclusion = %v (%s)", c.Conclusion, c)
	}
	if c.PAB < 0.95 || c.CILo <= 0.5 {
		t.Errorf("PAB stats wrong: %s", c)
	}
	if c.MeanA <= c.MeanB {
		t.Error("means inverted")
	}
	if c.RecommendedN != 29 {
		t.Errorf("recommended N = %d", c.RecommendedN)
	}
	if !strings.Contains(c.String(), "significant and meaningful") {
		t.Errorf("String() = %q", c.String())
	}
}

func TestCompareNullIsNotSignificant(t *testing.T) {
	r := xrand.New(2)
	n := 30
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	res, err := Analyze(a, b, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Comparison; c.Conclusion == SignificantAndMeaningful {
		t.Errorf("null comparison declared meaningful: %s", c)
	}
}

func TestCompareOptionValidation(t *testing.T) {
	a := []float64{1, 2, 3}
	if _, err := Analyze(a, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Analyze(a, a, WithGamma(0.4)); err == nil {
		t.Error("γ ≤ 0.5 should error")
	}
	if _, err := Analyze(a, a, WithGamma(1.0)); err == nil {
		t.Error("γ ≥ 1 should error")
	}
	if _, err := Analyze(a, a, WithGamma(math.NaN())); err == nil {
		t.Error("γ = NaN should error")
	}
	if _, err := Analyze(a, a, WithConfidence(math.NaN())); err == nil {
		t.Error("confidence = NaN should error")
	}
	if _, err := Analyze([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair should error")
	}
}

func TestCompareDeterministicWithSeed(t *testing.T) {
	r := xrand.New(3)
	n := 25
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64() + 0.5
		b[i] = r.NormFloat64()
	}
	r1, err := Analyze(a, b, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(a, b, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if c1, c2 := r1.Comparison, r2.Comparison; c1.CILo != c2.CILo || c1.CIHi != c2.CIHi {
		t.Error("same seed gave different CIs")
	}
}

func TestCompareGammaAffectsConclusion(t *testing.T) {
	// A modest effect: meaningful at γ=0.55, not at γ=0.95.
	r := xrand.New(4)
	n := 200
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64() + 1.0
		b[i] = r.NormFloat64()
	}
	low, err := Analyze(a, b, WithGamma(0.55))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Analyze(a, b, WithGamma(0.99))
	if err != nil {
		t.Fatal(err)
	}
	if c := low.Comparison; c.Conclusion != SignificantAndMeaningful {
		t.Errorf("γ=0.55: %s", c)
	}
	if c := high.Comparison; c.Conclusion != SignificantNotMeaningful {
		t.Errorf("γ=0.99: %s", c)
	}
}

func TestCompareUnpaired(t *testing.T) {
	r := xrand.New(8)
	a := make([]float64, 35)
	b := make([]float64, 25) // unequal sizes are fine unpaired
	for i := range a {
		a[i] = r.Normal(2, 1)
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	res, err := Analyze(a, b, WithUnpaired())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comparison
	if c.Conclusion != SignificantAndMeaningful {
		t.Errorf("unpaired dominance: %s", c)
	}
	if c.N != 25 {
		t.Errorf("N = %d, want min size 25", c.N)
	}
	if _, err := Analyze(a, b, WithUnpaired(), WithGamma(0.3)); err == nil {
		t.Error("bad γ accepted")
	}
	if _, err := Analyze([]float64{1}, b, WithUnpaired()); err == nil {
		t.Error("single measure accepted")
	}
}

func TestSampleSize(t *testing.T) {
	if SampleSize(0.75) != 29 {
		t.Errorf("SampleSize(0.75) = %d, want 29", SampleSize(0.75))
	}
	if SampleSize(0.9) >= SampleSize(0.75) {
		t.Error("larger γ should need fewer samples")
	}
}

func TestSummarize(t *testing.T) {
	r := xrand.New(5)
	scores := make([]float64, 50)
	for i := range scores {
		scores[i] = r.Normal(0.8, 0.02)
	}
	s := Summarize(scores)
	if s.N != 50 {
		t.Error("N wrong")
	}
	if math.Abs(s.Mean-0.8) > 0.02 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Std <= 0 || s.StdErr >= s.Std {
		t.Errorf("std/stderr wrong: %v %v", s.Std, s.StdErr)
	}
	if s.NormalP < 0.01 {
		t.Errorf("normal data rejected: p=%v", s.NormalP)
	}
	// Degenerate input gets NaN normality, not a panic.
	tiny := Summarize([]float64{1, 2})
	if !math.IsNaN(tiny.NormalP) {
		t.Error("n=2 should give NaN normality p")
	}
}

func TestEndToEndWorkflow(t *testing.T) {
	// The full recommended protocol on two synthetic "pipelines" whose true
	// P(A>B) ≈ Φ(0.8/√2) ≈ 0.71 — strong but not overwhelming — collected
	// to Noether's recommended sample size.
	runner := func(shift float64) RunFunc {
		return func(seed uint64) (float64, error) {
			r := xrand.New(seed)
			_ = r.Uint64()
			return xrand.New(seed^0xABCD).NormFloat64()*0.02 + shift, nil
		}
	}
	e := Experiment{
		A: runner(0.85), B: runner(0.84),
		MaxRuns: SampleSize(0.75), Seed: 11, EarlyStop: EarlyStopOff,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 29 {
		t.Fatalf("collected %d pairs", res.Pairs)
	}
	c := res.Comparison
	t.Logf("workflow: %s", c)
	if c.N != c.RecommendedN {
		t.Error("sample size bookkeeping wrong")
	}
}
