package stats

import (
	"fmt"
	"testing"

	"varbench/internal/xrand"
)

// BenchmarkIncrementalExtend is the acceptance benchmark of the incremental
// engine: extending an accumulator by one batch of n_new pairs should cost
// O(K × n_new) however many pairs it already holds. The nold sweep keeps
// the per-batch cost roughly flat, not equal: across five runs on a 2-vCPU
// Xeon guest with AVX2 (go1.24.0, GOMAXPROCS=1), n_old 512 took 0.80x to
// 1.18x as long as n_old 0, so the sweep is not gated on equality. The
// from-scratch contrast shows what every batch boundary used to pay, and
// the bench gate (benchgate.json) asserts that gap: from scratch at n=520
// must stay at least 20x slower than extending at n_old=512. It was 50x to
// 61x in the same runs, a margin of 2.5x over the bound; 520/8 = 65x is the
// O(K × n) expectation, and each timed batch also restores a 16 KB
// snapshot, a cost that no longer hides behind about 8 ns per cell.
func BenchmarkIncrementalExtend(b *testing.B) {
	const k = 1000
	const nNew = 8
	pairs := randomPairs(xrand.New(31), 1024+nNew)

	for _, nOld := range []int{0, 64, 512} {
		base, err := NewAccum(AccPAB, k, 77)
		if err != nil {
			b.Fatal(err)
		}
		if err := base.ExtendPairs(pairs[:nOld], 1); err != nil {
			b.Fatal(err)
		}
		snap, err := base.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		work, err := NewAccum(AccPAB, k, 77)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pab-k%d-nold%d-new%d", k, nOld, nNew), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// restoreInto resets to the n_old state in place (a column
				// copy, no allocation) so every iteration times exactly one
				// batch extension at a fixed n_old.
				if err := work.restoreInto(snap); err != nil {
					b.Fatal(err)
				}
				if err := work.ExtendPairs(pairs[nOld:nOld+nNew], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The O(K × n) from-scratch contrast: what re-running the analysis at a
	// batch boundary with 512 accumulated pairs costs without incrementality.
	b.Run(fmt.Sprintf("pab-k%d-fromscratch-n%d", k, 512+nNew), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ac, err := NewAccum(AccPAB, k, 77)
			if err != nil {
				b.Fatal(err)
			}
			if err := ac.ExtendPairs(pairs[:512+nNew], 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalCI times reading the percentile interval off a
// populated accumulator — the per-batch-boundary evaluation cost, which is
// O(K) and allocation-free on the pooled scratch.
func BenchmarkIncrementalCI(b *testing.B) {
	ac, err := NewAccum(AccPAB, 1000, 77)
	if err != nil {
		b.Fatal(err)
	}
	if err := ac.ExtendPairs(randomPairs(xrand.New(31), 64), 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ci := ac.CI(0.95); ci.Lo > ci.Hi {
			b.Fatal("inverted CI")
		}
	}
}
