package stats

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"varbench/internal/xrand"
)

// The bootstrap benchmarks pin the protocol's hot loop at the paper's
// recommended operating point: K=1000 resamples of n=29 pairs (Noether's N
// for γ=0.75). The serial-legacy case is the historical caller-stream
// engine (now kernel-dispatched through the buffered path); the sharded
// cases must match it within noise at workers=1; the fused-kernel cases are
// the paths the recommended protocol actually runs — bit-identical CIs,
// ≥2x faster and 0 allocs/op in steady state.

func benchPairs(n int) []Pair {
	r := xrand.New(6)
	pairs := make([]Pair, n)
	for i := range pairs {
		base := r.NormFloat64()
		pairs[i] = Pair{A: base + 0.5, B: base + 0.3*r.NormFloat64()}
	}
	return pairs
}

// distinctWorkers sorts a worker-count sweep and drops repeats, so a sweep
// ending in runtime.GOMAXPROCS(0) measures each configuration once even
// when GOMAXPROCS is already in it (the bench gate runs at GOMAXPROCS=1).
func distinctWorkers(ws ...int) []int {
	slices.Sort(ws)
	return slices.Compact(ws)
}

func benchPAB(p []Pair) float64 {
	wins := 0.0
	for _, pr := range p {
		switch {
		case pr.A > pr.B:
			wins++
		case pr.A == pr.B:
			wins += 0.5
		}
	}
	return wins / float64(len(p))
}

func BenchmarkPairedBootstrapK1000(b *testing.B) {
	pairs := benchPairs(29)
	b.Run("serial-legacy", func(b *testing.B) {
		r := xrand.New(9)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PairedPercentileBootstrap(pairs, benchPAB, 1000, 0.95, r)
		}
	})
	for _, w := range distinctWorkers(1, 2, 4, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("sharded-workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairedPercentileBootstrapSharded(pairs, benchPAB, 1000, 0.95, 9, w)
			}
		})
	}
	// The fused path the protocol actually runs: same resamples, same CI,
	// no buffer, no closure, 0 allocs/op in steady state.
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("fused-pab-workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairedPercentileBootstrapKernel(pairs, PABKernel{}, 1000, 0.95, 9, w)
			}
		})
	}
}

func BenchmarkTwoSampleBootstrapK1000(b *testing.B) {
	r := xrand.New(3)
	a := make([]float64, 29)
	c := make([]float64, 29)
	for i := range a {
		a[i] = r.NormFloat64() + 0.5
		c[i] = r.NormFloat64()
	}
	stat := func(x, y []float64) float64 { return MannWhitney(x, y, TwoTailed).PAB }
	for _, w := range distinctWorkers(1, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TwoSampleBootstrapSharded(a, c, stat, 1000, 0.95, 9, w)
			}
		})
	}
	// The rank-based Mann-Whitney statistic has no fused kernel (the cases
	// above); the fused two-sample mean difference bounds what the buffered
	// path pays for materializing resamples and closure dispatch.
	b.Run("fused-meandiff-workers-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TwoSampleBootstrapKernel(a, c, TwoSampleMeanDiffKernel{}, 1000, 0.95, 9, 1)
		}
	})
}

// BenchmarkBootstrapKernelsK1000 pins every one-sample kernel against its
// buffered closure counterpart at the recommended operating point (K=1000,
// n=29). Kernel and closure rows are bit-identical in result; the gap is
// pure engine overhead — large for the fused mean (no buffer, no closure
// call), and nil by design for the two-pass variance, which stages its
// draws either way.
func BenchmarkBootstrapKernelsK1000(b *testing.B) {
	x := shardedSample(29, 6)
	cases := []struct {
		name    string
		kern    Kernel
		closure func([]float64) float64
	}{
		{"mean", MeanKernel{}, Mean},
		{"variance", VarianceKernel{}, Variance},
	}
	for _, c := range cases {
		b.Run("kernel-"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PercentileBootstrapKernel(x, c.kern, 1000, 0.95, 11, 1)
			}
		})
		b.Run("closure-"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PercentileBootstrapSharded(x, c.closure, 1000, 0.95, 11, 1)
			}
		})
	}
}
