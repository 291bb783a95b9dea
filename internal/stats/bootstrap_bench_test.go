package stats

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"varbench/internal/xrand"
)

// The bootstrap benchmarks pin the protocol's hot loops at the paper's
// recommended operating point: K=1000 resamples of n=29 pairs (Noether's N
// for γ=0.75). The fused P(A>B) kernel is what the paired protocol runs
// (0 allocs/op serially); the two-sample case is the buffered Mann-Whitney
// path the unpaired protocol runs.

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

func BenchmarkPairedBootstrapK1000(b *testing.B) {
	pairs := benchPairs(29)
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
	stat := TwoSampleStatFunc(func(x, y []float64) float64 { return MannWhitney(x, y, TwoTailed).PAB })
	for _, w := range distinctWorkers(1, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TwoSampleBootstrapKernel(a, c, stat, 1000, 0.95, 9, w)
			}
		})
	}
}
