package stats

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func TestExactRowKnownDistribution(t *testing.T) {
	// For n=2, m=2: U ∈ {0..4} with counts 1,1,2,1,1 (total C(4,2)=6).
	counts := exactRow(2, 2, 4)
	want := []float64{1, 1, 2, 1, 1}
	for u, c := range want {
		if counts[u] != c {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestExactRowTotalIsChoose(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, m := 1+r.Intn(8), 1+r.Intn(8)
		counts := exactRow(n, m, n*m)
		total := 0.0
		for _, c := range counts {
			total += c
		}
		return math.Abs(total-math.Exp(LogChoose(n+m, n))) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestExactRowSymmetric(t *testing.T) {
	// The null U distribution is symmetric: c[u] = c[nm-u].
	counts := exactRow(5, 7, 35)
	for u := range counts {
		if counts[u] != counts[35-u] {
			t.Fatalf("U distribution asymmetric at %d", u)
		}
	}
}

func TestMannWhitneyExactGolden(t *testing.T) {
	// x = {1,2}, y = {3,4}: U_x = 0. One-sided P(U ≤ 0) = 1/6.
	x := []float64{1, 2}
	y := []float64{3, 4}
	res := MannWhitneyExact(x, y, LessTailed)
	approxEq(t, "exact p", res.PValue, 1.0/6, 1e-12)
	// Two-sided doubles it.
	res = MannWhitneyExact(x, y, TwoTailed)
	approxEq(t, "exact 2-sided p", res.PValue, 2.0/6, 1e-12)
	// Reversed direction.
	res = MannWhitneyExact(y, x, GreaterTailed)
	approxEq(t, "exact reversed", res.PValue, 1.0/6, 1e-12)
}

func TestMannWhitneyExactMatchesApproxForModerateN(t *testing.T) {
	r := xrand.New(1)
	x := make([]float64, 15)
	y := make([]float64, 12)
	for i := range x {
		x[i] = r.Normal(0.5, 1)
	}
	for i := range y {
		y[i] = r.NormFloat64()
	}
	exact := MannWhitneyExact(x, y, TwoTailed)
	approx := MannWhitney(x, y, TwoTailed)
	if math.Abs(exact.PValue-approx.PValue) > 0.05 {
		t.Errorf("exact %v vs approx %v diverge too much", exact.PValue, approx.PValue)
	}
	if exact.U != approx.U || exact.PAB != approx.PAB {
		t.Error("U/PAB should be identical between exact and approximate")
	}
}

func TestMannWhitneyExactFallsBackOnTies(t *testing.T) {
	x := []float64{1, 2, 2}
	y := []float64{2, 3}
	exact := MannWhitneyExact(x, y, TwoTailed)
	approx := MannWhitney(x, y, TwoTailed)
	if exact.PValue != approx.PValue {
		t.Error("tied data should fall back to the approximation")
	}
	// Large samples fall back too.
	big := make([]float64, 41)
	for i := range big {
		big[i] = float64(i) + 0.5
	}
	exact = MannWhitneyExact(big, []float64{0.1}, TwoTailed)
	approx = MannWhitney(big, []float64{0.1}, TwoTailed)
	if exact.PValue != approx.PValue {
		t.Error("large samples should fall back to the approximation")
	}
}

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
		k := r.Binomial(n, p)
		if ClopperPearson(k, n, 0.95).Contains(p) {
			hits++
		}
	}
	if rate := float64(hits) / trials; rate < 0.93 {
		t.Errorf("Clopper-Pearson coverage %v below nominal", rate)
	}
}

func TestCohensD(t *testing.T) {
	a := []float64{2, 4, 6, 8}
	b := []float64{1, 3, 5, 7}
	d := CohensD(a, b)
	// Means differ by 1, pooled sd = sqrt(20/3) ≈ 2.582 → d ≈ 0.387.
	approxEq(t, "Cohen's d", d, 1/math.Sqrt(20.0/3), 1e-12)
	if !math.IsNaN(CohensD([]float64{1}, b)) {
		t.Error("tiny sample should give NaN")
	}
	if !math.IsNaN(CohensD([]float64{1, 1}, []float64{1, 1})) {
		t.Error("zero pooled variance should give NaN")
	}
}

func TestCliffsDeltaRelatesToPAB(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, m := 1+r.Intn(15), 1+r.Intn(15)
		a := make([]float64, n)
		b := make([]float64, m)
		for i := range a {
			a[i] = float64(r.Intn(6))
		}
		for i := range b {
			b[i] = float64(r.Intn(6))
		}
		delta := CliffsDelta(a, b)
		pab := MannWhitney(a, b, TwoTailed).PAB
		// δ = 2·PAB − 1 with half-tie counting.
		return math.Abs(delta-(2*pab-1)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCliffsDeltaExtremes(t *testing.T) {
	if CliffsDelta([]float64{5, 6}, []float64{1, 2}) != 1 {
		t.Error("complete dominance should give +1")
	}
	if CliffsDelta([]float64{1, 2}, []float64{5, 6}) != -1 {
		t.Error("complete anti-dominance should give -1")
	}
}

func TestKolmogorovSmirnov(t *testing.T) {
	r := xrand.New(3)
	a := make([]float64, 150)
	b := make([]float64, 150)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	d, p := KolmogorovSmirnov(a, b)
	if d < 0 || d > 1 {
		t.Fatalf("D = %v", d)
	}
	if p < 0.05 {
		t.Errorf("same-distribution KS rejected: p=%v", p)
	}
	// Shifted distribution must be detected.
	for i := range b {
		b[i] = r.Normal(1.2, 1)
	}
	_, p = KolmogorovSmirnov(a, b)
	if p > 1e-6 {
		t.Errorf("1.2σ shift not detected: p=%v", p)
	}
	if d, p := KolmogorovSmirnov(nil, b); !math.IsNaN(d) || !math.IsNaN(p) {
		t.Error("empty input should give NaN")
	}
}

func TestKSCalibration(t *testing.T) {
	r := xrand.New(4)
	const trials = 300
	rejects := 0
	for i := 0; i < trials; i++ {
		a := make([]float64, 60)
		b := make([]float64, 60)
		for j := range a {
			a[j] = r.NormFloat64()
			b[j] = r.NormFloat64()
		}
		if _, p := KolmogorovSmirnov(a, b); p < 0.05 {
			rejects++
		}
	}
	rate := float64(rejects) / trials
	if rate > 0.1 {
		t.Errorf("KS null rejection rate %v, want ≈0.05 (conservative ok)", rate)
	}
}
