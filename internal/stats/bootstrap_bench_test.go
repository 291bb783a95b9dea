package stats

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"varbench/internal/xrand"
)

// The bootstrap benchmark pins the unpaired protocol's hot loop at the
// paper's recommended operating point: K=1000 resamples of n=29 measures
// per side (Noether's N for γ=0.75), through the buffered Mann-Whitney
// path. The paired protocol resamples nothing; BenchmarkPABCountsCI times
// its exact interval.

// distinctWorkers sorts a worker-count sweep and drops repeats, so a sweep
// ending in runtime.GOMAXPROCS(0) measures each configuration once even
// when GOMAXPROCS is already in it (the bench gate runs at GOMAXPROCS=1).
func distinctWorkers(ws ...int) []int {
	slices.Sort(ws)
	return slices.Compact(ws)
}

func BenchmarkTwoSampleBootstrapK1000(b *testing.B) {
	r := xrand.New(3)
	a := make([]float64, 29)
	c := make([]float64, 29)
	for i := range a {
		a[i] = r.NormFloat64() + 0.5
		c[i] = r.NormFloat64()
	}
	for _, w := range distinctWorkers(1, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TwoSampleBootstrapKernel(a, c, mwPAB, 1000, 0.95, 9, w)
			}
		})
	}
}
