package stats

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approxEq(t, "Mean", Mean(x), 5, 1e-12)
	approxEq(t, "Variance", Variance(x), 32.0/7, 1e-12) // sample variance
	approxEq(t, "Std", Std(x), math.Sqrt(32.0/7), 1e-12)
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance([]float64{1})) {
		t.Error("degenerate inputs should give NaN")
	}
}

// TestQuantileMedian pins the selection quantiles that percentileCI reads
// to known type-7 values, on sorted and unsorted input.
func TestQuantileMedian(t *testing.T) {
	q0, q1 := quantiles2Select([]float64{1, 2, 3, 4}, 0, 1)
	approxEq(t, "Q0", q0, 1, 0)
	approxEq(t, "Q1", q1, 4, 0)
	q25, median := quantiles2Select([]float64{4, 1, 3, 2}, 0.25, 0.5)
	approxEq(t, "Q.25", q25, 1.75, 1e-12)
	approxEq(t, "Median", median, 2.5, 1e-12)
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q, q2 := quantiles2Select(x, p, min(p+0.05, 1))
			if q < prev || q2 < q {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	approxEq(t, "PearsonCorr perfect", PearsonCorr(x, y), 1, 1e-12)
	yneg := []float64{10, 8, 6, 4, 2}
	approxEq(t, "PearsonCorr anti", PearsonCorr(x, yneg), -1, 1e-12)
	approxEq(t, "Covariance", Covariance(x, y), 5, 1e-12)
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(40)
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.Intn(10)) // force ties
		}
		sum := 0.0
		for _, v := range Ranks(x) {
			sum += v
		}
		// Ranks always sum to n(n+1)/2 regardless of ties.
		return math.Abs(sum-float64(n*(n+1))/2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStdOfStd(t *testing.T) {
	approxEq(t, "StdOfStd", StdOfStd(2, 51), 2/math.Sqrt(100), 1e-12)
	if !math.IsNaN(StdOfStd(1, 1)) {
		t.Error("StdOfStd(n=1) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 4, 1, 5})
	if lo != -1 || hi != 5 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestMeanCorrelationSharedBias(t *testing.T) {
	// Construct realizations r with shared per-realization bias b_r:
	// X[r][i] = b_r + noise. Columns should be strongly correlated.
	rng := xrand.New(9)
	const reps, k = 200, 10
	rows := make([][]float64, reps)
	for r := range rows {
		b := rng.NormFloat64() * 2 // large shared bias
		rows[r] = make([]float64, k)
		for i := range rows[r] {
			rows[r][i] = b + 0.1*rng.NormFloat64()
		}
	}
	rho := MeanCorrelation(rows)
	if rho < 0.9 {
		t.Errorf("shared-bias rho = %v, want > 0.9", rho)
	}

	// Without shared bias the correlation should be near zero.
	for r := range rows {
		for i := range rows[r] {
			rows[r][i] = rng.NormFloat64()
		}
	}
	rho = MeanCorrelation(rows)
	if math.Abs(rho) > 0.1 {
		t.Errorf("independent rho = %v, want ≈ 0", rho)
	}
}
