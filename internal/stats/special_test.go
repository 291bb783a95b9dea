package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g (tol %g)", name, got, want, tol)
	}
}

func TestNormCDFGolden(t *testing.T) {
	// Values from standard normal tables.
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{2.5758293035489004, 0.995},
		{-3, 0.0013498980316300933},
		{6, 0.9999999990134123},
	}
	for _, c := range cases {
		approxEq(t, "NormCDF", NormCDF(c.z), c.want, 1e-12)
	}
}

func TestNormQuantileGolden(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.05, -1.6448536269514722},
		{0.995, 2.5758293035489004},
		{0.25, -0.6744897501960817},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		approxEq(t, "NormQuantile", NormQuantile(c.p), c.want, 1e-9)
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile endpoints wrong")
	}
	if !math.IsNaN(NormQuantile(-0.1)) || !math.IsNaN(NormQuantile(1.1)) {
		t.Error("NormQuantile out-of-range should be NaN")
	}
}

func TestNormQuantileInvertsCDF(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p < 1e-12 || p > 1-1e-12 {
			return true
		}
		z := NormQuantile(p)
		return math.Abs(NormCDF(z)-p) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaGolden(t *testing.T) {
	// I_x(a,b) golden values (scipy.special.betainc).
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},
		{2, 3, 0.5, 0.6875},
		{0.5, 0.5, 0.5, 0.5},
		{5, 2, 0.8, 0.65536},
		{10, 10, 0.5, 0.5},
	}
	for _, c := range cases {
		approxEq(t, "RegIncBeta", RegIncBeta(c.a, c.b, c.x), c.want, 1e-10)
	}
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Error("RegIncBeta endpoints wrong")
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v := RegIncBeta(3, 4, x)
		if v < prev {
			t.Fatalf("RegIncBeta not monotone at x=%v", x)
		}
		prev = v
	}
}

func TestRegIncGammaGolden(t *testing.T) {
	// P(a,x) golden values (scipy.special.gammainc).
	cases := []struct{ a, x, want float64 }{
		{1, 1, 1 - math.Exp(-1)},
		{2, 2, 0.5939941502901616},
		{0.5, 0.5, 0.6826894921370859}, // = erf(sqrt(0.5)·...) chi2(1) at 1
		{5, 10, 0.970747311923676},
	}
	for _, c := range cases {
		approxEq(t, "RegIncGammaLower", RegIncGammaLower(c.a, c.x), c.want, 1e-10)
	}
}

func TestLogChoose(t *testing.T) {
	approxEq(t, "LogChoose(5,2)", LogChoose(5, 2), math.Log(10), 1e-12)
	approxEq(t, "LogChoose(10,0)", LogChoose(10, 0), 0, 1e-12)
	if !math.IsInf(LogChoose(3, 5), -1) {
		t.Error("LogChoose(3,5) should be -Inf")
	}
}

func TestStudentTGolden(t *testing.T) {
	// scipy.stats.t.cdf golden values.
	cases := []struct {
		nu, t, want float64
	}{
		{1, 0, 0.5},
		{1, 1, 0.75},
		{2, 2, 0.9082482904638631},
		{10, 1.812461122811676, 0.95},
		{30, -2.042272456301238, 0.025},
	}
	for _, c := range cases {
		approxEq(t, "StudentT.CDF", StudentT{Nu: c.nu}.CDF(c.t), c.want, 1e-9)
	}
}

func TestChiSquaredCDF(t *testing.T) {
	// chi2(k=2) is Exp(1/2): CDF(x) = 1-exp(-x/2).
	c := ChiSquared{K: 2}
	for _, x := range []float64{0.5, 1, 2, 5} {
		approxEq(t, "ChiSquared.CDF", c.CDF(x), 1-math.Exp(-x/2), 1e-10)
	}
	if c.CDF(-1) != 0 {
		t.Error("negative chi2 CDF should be 0")
	}
}

func TestBinomialGolden(t *testing.T) {
	b := Binomial{N: 10, P: 0.5}
	approxEq(t, "Binomial.PMF(5)", b.PMF(5), 0.24609375, 1e-12)
	if b.PMF(-1) != 0 || b.PMF(11) != 0 {
		t.Error("out-of-support PMF should be 0")
	}
	// Degenerate p.
	if (Binomial{N: 3, P: 0}).PMF(0) != 1 || (Binomial{N: 3, P: 1}).PMF(3) != 1 {
		t.Error("degenerate binomial PMF wrong")
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	b := Binomial{N: 25, P: 0.37}
	sum := 0.0
	for k := 0; k <= 25; k++ {
		sum += b.PMF(k)
	}
	approxEq(t, "ΣPMF", sum, 1, 1e-10)
}

// TestBinomialCDFMatchesPMFSum holds RegIncBeta, which PABCountsCI's
// tie-free quantiles bisect, to the binomial identity
// P(X ≤ k) = I_{1-p}(n-k, k+1).
func TestBinomialCDFMatchesPMFSum(t *testing.T) {
	f := func(rawP float64, rawN uint8) bool {
		p := math.Abs(math.Mod(rawP, 1))
		n := 1 + int(rawN%40)
		b := Binomial{N: n, P: p}
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += b.PMF(k)
			if math.Abs(RegIncBeta(float64(n-k), float64(k+1), 1-p)-sum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccuracyStdModel(t *testing.T) {
	// The Figure 2 model: std of measured accuracy for τ=0.34 error rate
	// (acc 0.66) on n'=277 (Glue-RTE) ≈ 2.85%.
	b := Binomial{N: 277, P: 0.66}
	got := b.AccuracyStd() * 100
	if got < 2.5 || got > 3.2 {
		t.Errorf("RTE-like accuracy std = %v%%, want ≈2.85%%", got)
	}
	// CIFAR10-like: acc 0.91 on 10000 → ≈0.29%.
	b = Binomial{N: 10000, P: 0.91}
	got = b.AccuracyStd() * 100
	if got < 0.25 || got > 0.32 {
		t.Errorf("CIFAR-like accuracy std = %v%%, want ≈0.29%%", got)
	}
}
