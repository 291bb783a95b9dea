package stats

import (
	"math"
	"runtime"
	"testing"

	"varbench/internal/xrand"
)

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
	stat := TwoSampleStatFunc(meanDiff)
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
	diff := TwoSampleStatFunc(func(x, y []float64) float64 { return Mean(x) - Mean(y) })
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
		ci := TwoSampleBootstrapKernel(a, b, TwoSampleStatFunc(meanDiff), 500, 0.95, uint64(rep), 4)
		if ci.Contains(10) {
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
