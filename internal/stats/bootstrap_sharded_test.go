package stats

import (
	"math"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

// workerGrid is the worker sweep the invariance tests run: serial, a small
// fixed pool, and whatever the machine offers.
func workerGrid() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

func randomSample(r *xrand.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

// ciEqual distinguishes bit-level equality including NaN endpoints (== is
// false for NaN).
func ciEqual(a, b CI) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	}
	return eq(a.Lo, b.Lo) && eq(a.Hi, b.Hi) && a.Level == b.Level
}

// mwPAB is the unpaired protocol's statistic: Mann-Whitney's P(A>B).
func mwPAB(a, b []float64) float64 { return MannWhitney(a, b, TwoTailed).PAB }

// TestResampleDrawsInElementOrder makes the determinism contract
// executable: each resample draws all of a's indices, then all of b's, one
// Intn per element and nothing else, and the sharded CI is the same at
// every worker count.
func TestResampleDrawsInElementOrder(t *testing.T) {
	r := xrand.New(1234)
	for trial := 0; trial < 30; trial++ {
		k := 50 + r.Intn(300)
		level := 0.8 + 0.15*r.Float64()
		seed := r.Uint64()
		x := randomSample(r, 2+r.Intn(40))
		y := randomSample(r, 2+r.Intn(40))

		got := make([]float64, 5)
		ra, rb := xrand.New(seed), xrand.New(seed)
		resampleInto(got, x, y, mwPAB, ra)
		bufX, bufY := make([]float64, len(x)), make([]float64, len(y))
		for i := range got {
			for j := range bufX {
				bufX[j] = x[rb.Intn(len(x))]
			}
			for j := range bufY {
				bufY[j] = y[rb.Intn(len(y))]
			}
			if want := mwPAB(bufX, bufY); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d resample %d: %v, want %v", trial, i, got[i], want)
			}
		}
		if ra.Uint64() != rb.Uint64() {
			t.Fatalf("trial %d: the resample consumed the stream differently", trial)
		}
		ref := TwoSampleBootstrapKernel(x, y, mwPAB, k, level, seed, 1)
		for _, w := range workerGrid() {
			if ci := TwoSampleBootstrapKernel(x, y, mwPAB, k, level, seed, w); !ciEqual(ci, ref) {
				t.Fatalf("trial %d workers=%d: %+v != serial %+v", trial, w, ci, ref)
			}
		}
	}
}

// TestShardedWorkerInvarianceAcrossK reruns the worker-grid invariance at
// resample counts on both sides of the shard-count boundary.
func TestShardedWorkerInvarianceAcrossK(t *testing.T) {
	r := xrand.New(31)
	x, y := randomSample(r, 29), randomSample(r, 29)
	for _, k := range []int{1, 2, 7, 63, 64, 65, 1000} {
		ref := TwoSampleBootstrapKernel(x, y, meanDiff, k, 0.95, 13, 1)
		for _, w := range workerGrid() {
			ci := TwoSampleBootstrapKernel(x, y, meanDiff, k, 0.95, 13, w)
			if !ciEqual(ci, ref) {
				t.Errorf("k=%d workers=%d: %+v != serial %+v", k, w, ci, ref)
			}
		}
	}
}

// TestBootstrapDegenerateInputs covers the input guard: k ≤ 0, empty
// samples and a confidence level outside (0,1) answer with the documented
// NaN CI instead of panicking inside the quantile machinery.
func TestBootstrapDegenerateInputs(t *testing.T) {
	x := []float64{1, 2, 3}
	isNaNCI := func(t *testing.T, ci CI, level float64) {
		t.Helper()
		if !math.IsNaN(ci.Lo) || !math.IsNaN(ci.Hi) {
			t.Errorf("degenerate input: CI %+v, want NaN endpoints", ci)
		}
		if ci.Level != level && !(math.IsNaN(level) && math.IsNaN(ci.Level)) {
			t.Errorf("degenerate input: level %v, want %v echoed", ci.Level, level)
		}
	}
	cases := []struct {
		name  string
		empty bool // use empty samples
		k     int
		level float64
	}{
		{"k-zero", false, 0, 0.95},
		{"k-negative", false, -3, 0.95},
		{"empty-sample", true, 100, 0.95},
		{"level-zero", false, 100, 0},
		{"level-one", false, 100, 1},
		{"level-negative", false, 100, -0.5},
		{"level-above-one", false, 100, 1.7},
		{"level-nan", false, 100, math.NaN()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sx := x
			if c.empty {
				sx = nil
			}
			for _, w := range []int{1, 4} {
				isNaNCI(t, TwoSampleBootstrapKernel(sx, sx, mwPAB, c.k, c.level, 9, w), c.level)
			}
			if c.empty || c.k > 0 {
				n := len(sx)
				isNaNCI(t, PABCountsCI(n, 0, 0, c.level), c.level)
			}
		})
	}
}

func TestBootstrapSmallSamples(t *testing.T) {
	// n=1: resampling a single element is legal and collapses the CI at
	// the statistic of that element — on every path.
	for _, c := range []struct {
		w, t, l int
		want    float64
	}{{1, 0, 0, 1}, {0, 1, 0, 0.5}, {0, 0, 1, 0}} {
		ci := PABCountsCI(c.w, c.t, c.l, 0.95)
		if ci.Lo != c.want || ci.Hi != c.want {
			t.Errorf("P(A>B) CI of counts %d/%d/%d = %+v, want collapsed at %v", c.w, c.t, c.l, ci, c.want)
		}
	}
	for _, w := range []int{1, 4} {
		ci := TwoSampleBootstrapKernel([]float64{2.5}, []float64{1}, mwPAB, 100, 0.95, 1, w)
		if ci.Lo != 1 || ci.Hi != 1 {
			t.Errorf("workers=%d: two-sample CI of singletons = %+v, want collapsed at 1", w, ci)
		}
	}
}

func TestBootstrapShardsPureInK(t *testing.T) {
	for _, k := range []int{1, 2, 31, 64, 65, 1000, 4096} {
		s := BootstrapShards(k)
		if s < 1 || s > k || s > maxBootstrapShards {
			t.Errorf("BootstrapShards(%d) = %d out of range", k, s)
		}
		if s != BootstrapShards(k) {
			t.Errorf("BootstrapShards(%d) not deterministic", k)
		}
	}
}

func TestPercentileBootstrapShardedWorkerInvariance(t *testing.T) {
	r := xrand.New(3)
	a, b := randomSample(r, 29), randomSample(r, 29)
	stat := meanDiff
	workerCounts := []int{1, 2, 3, 4, 7, 8, runtime.GOMAXPROCS(0), 100}
	ref := TwoSampleBootstrapKernel(a, b, stat, 1000, 0.95, 42, 1)
	for _, w := range workerCounts {
		ci := TwoSampleBootstrapKernel(a, b, stat, 1000, 0.95, 42, w)
		if ci != ref {
			t.Errorf("workers=%d: CI %+v != serial reference %+v", w, ci, ref)
		}
	}
	// Different seeds give different resamples.
	other := TwoSampleBootstrapKernel(a, b, stat, 1000, 0.95, 43, 4)
	if other == ref {
		t.Error("seed has no effect on the sharded bootstrap")
	}
	if ref.Lo > ref.Hi || ref.Level != 0.95 {
		t.Errorf("malformed CI %+v", ref)
	}
}

func TestTwoSampleBootstrapShardedWorkerInvariance(t *testing.T) {
	r := xrand.New(1)
	a := randomSample(r, 25)
	for i := range a {
		a[i] += 1.5
	}
	b := randomSample(r, 20)
	diff := func(x, y []float64) float64 { return Mean(x) - Mean(y) }
	ref := TwoSampleBootstrapKernel(a, b, diff, 800, 0.9, 5, 1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if ci := TwoSampleBootstrapKernel(a, b, diff, 800, 0.9, 5, w); ci != ref {
			t.Errorf("workers=%d: CI %+v != serial reference %+v", w, ci, ref)
		}
	}
	if ref.Lo <= 0 {
		t.Errorf("mean-difference CI should sit above 0: %+v", ref)
	}
}

func TestPercentileBootstrapShardedCoversMean(t *testing.T) {
	// Statistical sanity: the sharded engine is a valid percentile
	// bootstrap — a 95% CI for a mean difference covers the true
	// difference ≈95% of the time.
	r := xrand.New(21)
	const reps = 150
	hits := 0
	a, b := make([]float64, 40), make([]float64, 40)
	for rep := 0; rep < reps; rep++ {
		for i := range a {
			a[i], b[i] = r.Normal(10, 2), r.Normal(0, 1)
		}
		ci := TwoSampleBootstrapKernel(a, b, meanDiff, 500, 0.95, uint64(rep), 4)
		if contains(ci, 10) {
			hits++
		}
	}
	rate := float64(hits) / reps
	if rate < 0.88 || rate > 0.995 {
		t.Errorf("sharded bootstrap CI coverage = %v, want ≈0.95", rate)
	}
}

func TestGammaBonferroniSaturatesBelowOne(t *testing.T) {
	// Regression: the adjustment used to clamp at exactly 1.0 for large m,
	// which made "significant and meaningful" (CI.Hi > γ) and the
	// CI-cleared early stop (CI.Lo > γ) unreachable — a bootstrap CI never
	// exceeds 1.
	for _, m := range []int{100, 10000, 1 << 30} {
		g := GammaBonferroni(0.75, 0.05, m)
		if g >= 1 {
			t.Errorf("m=%d: adjusted γ = %v, must stay strictly below 1", m, g)
		}
		if g != GammaMax {
			t.Errorf("m=%d: adjusted γ = %v, want saturation at GammaMax", m, g)
		}
	}
	// Saturation is detectable and the sample-size relation stays finite.
	if n := NoetherSampleSize(GammaMax, 0.05, 0.05); n <= 0 || n >= math.MaxInt32 {
		t.Errorf("NoetherSampleSize(GammaMax) = %d degenerate", n)
	}
}
