package simulate

import (
	"math"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// truePAB inverts MeanDiffForPAB: the P(A>B) of two independent normals
// meanDiff apart, each with variance sigma2.
func truePAB(meanDiff, sigma2 float64) float64 {
	return stats.NormCDF(meanDiff / math.Sqrt(2*sigma2))
}

func TestMeanDiffAndTruePABRoundTrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.5, 0.6, 0.75, 0.9, 0.99} {
		diff := MeanDiffForPAB(p, 0.04)
		back := truePAB(diff, 0.04)
		if math.Abs(back-p) > 1e-9 {
			t.Errorf("round trip %v → %v", p, back)
		}
	}
	if MeanDiffForPAB(0.5, 1) != 0 {
		t.Error("P=0.5 should give zero mean difference")
	}
}

func TestModelSampleMoments(t *testing.T) {
	r := xrand.New(1)
	ideal := Model{Sigma2: 0.09}
	x := ideal.Sample(2, 50000, r)
	if math.Abs(stats.Mean(x)-2) > 0.01 {
		t.Errorf("ideal mean = %v", stats.Mean(x))
	}
	if math.Abs(stats.Std(x)-0.3) > 0.01 {
		t.Errorf("ideal std = %v", stats.Std(x))
	}

	// Biased model: per-realization mean shifts by N(0, BiasVar).
	biased := Model{Sigma2: 0.09, BiasVar: 0.04, WithinVar: 0.01}
	means := make([]float64, 500)
	for i := range means {
		means[i] = stats.Mean(biased.Sample(0, 30, r))
	}
	sd := stats.Std(means)
	want := math.Sqrt(0.04 + 0.01/30)
	if math.Abs(sd-want) > 0.02 {
		t.Errorf("biased realization-mean std = %v, want ≈ %v", sd, want)
	}
}

func TestClassify(t *testing.T) {
	g := 0.75
	if Classify(0.45, g) != RegionH0 || Classify(0.5, g) != RegionH0 {
		t.Error("H0 region wrong")
	}
	if Classify(0.6, g) != RegionGrey {
		t.Error("grey region wrong")
	}
	if Classify(0.75, g) != RegionH1 || Classify(0.95, g) != RegionH1 {
		t.Error("H1 region wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.Defaults(0.04)
	if c.K != 50 || c.Gamma != 0.75 || c.Alpha != 0.05 {
		t.Errorf("defaults wrong: %+v", c)
	}
	wantDelta := 1.9952 * 0.2
	if math.Abs(c.Delta-wantDelta) > 1e-9 {
		t.Errorf("delta = %v, want %v", c.Delta, wantDelta)
	}
	// Explicit values survive.
	c2 := Config{K: 10, Delta: 0.5}.Defaults(0.04)
	if c2.K != 10 || c2.Delta != 0.5 {
		t.Error("explicit values overwritten")
	}
}

func TestDetectionCurveFigure6Orderings(t *testing.T) {
	// The Figure 6 qualitative results, at reduced simulation size:
	//  - single point: high FP and high FN
	//  - average with δ≈2σ: very low FP, very high FN
	//  - PAB: low FP, moderate FN; close to oracle with ideal estimator
	r := xrand.New(7)
	sigma2 := 0.0004 // σ = 2% accuracy, a realistic benchmark scale
	ideal := Model{Sigma2: sigma2}
	// Bias variance at the scale measured in Figure 5: a few percent of σ².
	biased := Model{Sigma2: sigma2, BiasVar: sigma2 * 0.06, WithinVar: sigma2 * 0.94}
	cfg := Config{NSim: 120}
	grid := []float64{0.42, 0.46, 0.5, 0.8, 0.9, 0.98}
	points, err := DetectionCurve(cfg, ideal, biased, grid, r)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(points, 0.75)

	fpSingle := sum.FalsePositive["single-point/ideal"]
	fpAvg := sum.FalsePositive["average/ideal"]
	fpPAB := sum.FalsePositive["prob-outperform/ideal"]
	fnSingle := sum.FalseNegative["single-point/ideal"]
	fnAvg := sum.FalseNegative["average/ideal"]
	fnPAB := sum.FalseNegative["prob-outperform/ideal"]
	t.Logf("FP: single=%.3f avg=%.3f pab=%.3f", fpSingle, fpAvg, fpPAB)
	t.Logf("FN: single=%.3f avg=%.3f pab=%.3f", fnSingle, fnAvg, fnPAB)

	if fpSingle < fpAvg {
		t.Error("single-point FP should exceed average FP")
	}
	if fpPAB > 0.15 {
		t.Errorf("PAB FP = %v, want ≤ 0.15", fpPAB)
	}
	if fnAvg < fnPAB {
		t.Error("average FN should exceed PAB FN")
	}
	if fnSingle < fnPAB {
		t.Error("single-point FN should exceed PAB FN")
	}
	// Oracle dominates at the H1 end.
	if sum.FalseNegative["oracle"] > fnPAB+0.05 {
		t.Error("oracle should not miss more than PAB")
	}
}

func TestDetectionCurveBiasedDegradesPAB(t *testing.T) {
	// The biased estimator hurts but does not break the PAB test
	// (Section 4.2 observations).
	r := xrand.New(9)
	sigma2 := 0.0004
	ideal := Model{Sigma2: sigma2}
	// Realistic bias scale (Figure 5): Var(bias) ≈ 6% of σ². The paper
	// observes the biased estimator degrades the PAB test's error control
	// without breaking it ("we cannot guarantee a nominal control").
	biased := Model{Sigma2: sigma2, BiasVar: sigma2 * 0.06, WithinVar: sigma2 * 0.94}
	cfg := Config{NSim: 150}
	points, err := DetectionCurve(cfg, ideal, biased, []float64{0.5}, r)
	if err != nil {
		t.Fatal(err)
	}
	fpIdeal := points[0].Rates["prob-outperform/ideal"]
	fpBiased := points[0].Rates["prob-outperform/biased"]
	t.Logf("PAB FP at P=0.5: ideal=%v biased=%v", fpIdeal, fpBiased)
	if fpBiased > 0.25 {
		t.Errorf("biased PAB FP = %v, should remain controlled", fpBiased)
	}
	if fpBiased+0.03 < fpIdeal {
		t.Errorf("biased FP %v should not be far below ideal FP %v", fpBiased, fpIdeal)
	}
}

func TestDetectionCurveErrors(t *testing.T) {
	if _, err := DetectionCurve(Config{}, Model{}, Model{}, []float64{0.5}, xrand.New(1)); err == nil {
		t.Error("zero Sigma2 should error")
	}
}

func TestSampleSizeSweepPowerGrows(t *testing.T) {
	r := xrand.New(11)
	ideal := Model{Sigma2: 0.0004}
	pts, err := SampleSizeSweep(Config{NSim: 120}, ideal, 0.8,
		[]int{5, 20, 60}, r)
	if err != nil {
		t.Fatal(err)
	}
	// PAB detection rate should grow with sample size at true P=0.8 > γ...
	first := pts[0].Rates["prob-outperform"]
	last := pts[len(pts)-1].Rates["prob-outperform"]
	t.Logf("PAB rate: n=5 → %v, n=60 → %v", first, last)
	if last < first {
		t.Errorf("PAB power should grow with n: %v → %v", first, last)
	}
	if last < 0.5 {
		t.Errorf("PAB power at n=60, P=0.8 = %v, want > 0.5", last)
	}
}

func TestSampleSizeSweepNullControlled(t *testing.T) {
	r := xrand.New(13)
	ideal := Model{Sigma2: 0.0004}
	pts, err := SampleSizeSweep(Config{NSim: 200}, ideal, 0.5,
		[]int{30}, r)
	if err != nil {
		t.Fatal(err)
	}
	for name, rate := range pts[0].Rates {
		if rate > 0.12 {
			t.Errorf("%s false-positive rate at P=0.5: %v", name, rate)
		}
	}
}

func TestGammaSweepTradeoff(t *testing.T) {
	r := xrand.New(17)
	ideal := Model{Sigma2: 0.0004}
	pts, err := GammaSweep(Config{NSim: 120, K: 50}, ideal, 0.8,
		[]float64{0.6, 0.9}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Raising γ above the true P should reduce PAB detections.
	lo := pts[0].Rates["prob-outperform"]
	hi := pts[1].Rates["prob-outperform"]
	t.Logf("PAB rate: γ=0.6 → %v, γ=0.9 → %v", lo, hi)
	if hi > lo {
		t.Errorf("detections should fall as γ passes the true effect: %v → %v", lo, hi)
	}
}
