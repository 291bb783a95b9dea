package stats

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func TestPairedTTest(t *testing.T) {
	x := []float64{1.1, 2.2, 3.1, 4.3, 5.2}
	y := []float64{1.0, 2.0, 3.0, 4.0, 5.0}
	res := PairedTTest(x, y, GreaterTailed)
	if res.PValue > 0.05 {
		t.Errorf("paired t missed consistent improvement: p=%v", res.PValue)
	}
}

func TestMannWhitneyGolden(t *testing.T) {
	// scipy.stats.mannwhitneyu(x, y, alternative='two-sided',
	// use_continuity=True, method='asymptotic'): U=25, p=0.1437.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 4, 5, 6, 7}
	res := MannWhitney(x, y, TwoTailed)
	approxEq(t, "U", res.U, 4.5, 1e-12)
	approxEq(t, "PAB", res.PAB, 4.5/25, 1e-12)
	if res.PValue < 0.05 {
		t.Errorf("small-sample MW should not be significant: p=%v", res.PValue)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	// U_A + U_B = n·m for any data (ties handled by midranks).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, m := 1+r.Intn(20), 1+r.Intn(20)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = float64(r.Intn(10))
		}
		for i := range y {
			y[i] = float64(r.Intn(10))
		}
		ua := MannWhitney(x, y, TwoTailed).U
		ub := MannWhitney(y, x, TwoTailed).U
		return math.Abs(ua+ub-float64(n*m)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMannWhitneyPABRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, m := 1+r.Intn(15), 1+r.Intn(15)
		x := make([]float64, n)
		y := make([]float64, m)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		for i := range y {
			y[i] = r.NormFloat64()
		}
		pab := MannWhitney(x, y, TwoTailed).PAB
		return pab >= 0 && pab <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMannWhitneyDetectsDominance(t *testing.T) {
	r := xrand.New(3)
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = r.Normal(1, 1)
		y[i] = r.Normal(0, 1)
	}
	res := MannWhitney(x, y, GreaterTailed)
	if res.PValue > 0.01 {
		t.Errorf("MW missed 1σ dominance: p=%v", res.PValue)
	}
	if res.PAB < 0.6 {
		t.Errorf("PAB = %v, want > 0.6 for 1σ shift", res.PAB)
	}
	// Theoretical P(A>B) for 1σ shift of unit normals = Φ(1/√2) ≈ 0.76.
	if math.Abs(res.PAB-0.76) > 0.12 {
		t.Errorf("PAB = %v, want ≈ 0.76", res.PAB)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	x := []float64{1, 1, 1}
	y := []float64{1, 1, 1}
	res := MannWhitney(x, y, TwoTailed)
	if res.PAB != 0.5 || res.PValue != 1 {
		t.Errorf("all-tied MW should be PAB=0.5, p=1; got %v, %v", res.PAB, res.PValue)
	}
}

func TestWilcoxonSignedRank(t *testing.T) {
	// Consistent small paired improvement.
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	res := WilcoxonSignedRank(x, y, TwoTailed)
	// scipy.stats.wilcoxon(x, y, correction=True, mode='approx'): W+=27.
	approxEq(t, "W+", res.Stat, 27, 1e-12)
	if res.PValue < 0.3 {
		t.Errorf("Wilcoxon p=%v, should be clearly non-significant", res.PValue)
	}
	// Identical samples: p = 1.
	same := WilcoxonSignedRank(x, x, TwoTailed)
	if same.PValue != 1 {
		t.Errorf("identical samples p=%v, want 1", same.PValue)
	}
}

func TestWilcoxonDetectsShift(t *testing.T) {
	r := xrand.New(5)
	n := 50
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		base := r.NormFloat64()
		x[i] = base + 0.5
		y[i] = base + 0.1*r.NormFloat64()
	}
	res := WilcoxonSignedRank(x, y, GreaterTailed)
	if res.PValue > 1e-4 {
		t.Errorf("Wilcoxon missed paired shift: p=%v", res.PValue)
	}
}
