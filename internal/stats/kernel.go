package stats

import (
	"sync"

	"varbench/internal/xrand"
)

// The statistic-kernel layer of the sharded bootstrap engine, which runs
// the unpaired protocol's Mann-Whitney P(A>B). A kernel owns the whole
// resampling loop for one statistic; TwoSampleStatFunc adapts a closure to
// it by materializing each resample in a pooled scratch buffer. (The
// paired P(A>B) needs no resampling at all: see PABCountsCI.)
//
// Determinism contract (every implementation MUST obey it, or worker-count
// invariance and the golden reports break):
//
//   - exactly one r.Intn(len(sample)) per sampled element, drawn in element
//     order: all of a's draws, then all of b's;
//   - out[i] must be bit-identical to computing the statistic on the
//     materialized resample;
//   - no other reads of r, and no dependence on how [0, len(out)) resamples
//     are partitioned across shards or workers.

// A TwoSampleKernel computes a two-sample statistic over independent
// resamples of two unpaired samples: each resample redraws all of a, then
// all of b.
type TwoSampleKernel interface {
	Stat(a, b []float64) float64
	ResampleInto(out []float64, a, b []float64, r *xrand.Source)
}

// ---------------------------------------------------------------------------
// Pooled scratch. The bootstrap engine is allocation-free in steady state:
// resampled-statistic vectors, shard descriptors and buffered-path scratch
// all cycle through pools. Slices are pooled by pointer so Put does not
// allocate.

var floatPool sync.Pool // *[]float64

// getFloats returns a pooled len-n float slice (contents unspecified).
func getFloats(n int) *[]float64 {
	if p, _ := floatPool.Get().(*[]float64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]float64, n)
	return &s
}

func putFloats(p *[]float64) { floatPool.Put(p) }

// ---------------------------------------------------------------------------
// Two-sample kernels.

// TwoSampleStatFunc adapts an arbitrary two-sample statistic to the
// TwoSampleKernel interface (buffered path, pooled scratch for both
// samples). The unpaired protocol runs Mann-Whitney's P(A>B) through it.
type TwoSampleStatFunc func(a, b []float64) float64

// Stat implements TwoSampleKernel.
func (f TwoSampleStatFunc) Stat(a, b []float64) float64 { return f(a, b) }

// ResampleInto implements TwoSampleKernel.
func (f TwoSampleStatFunc) ResampleInto(out []float64, a, b []float64, r *xrand.Source) {
	pa, pb := getFloats(len(a)), getFloats(len(b))
	bufA, bufB := *pa, *pb
	for i := range out {
		xrand.SampleInto(r, bufA, a)
		xrand.SampleInto(r, bufB, b)
		out[i] = f(bufA, bufB)
	}
	putFloats(pa)
	putFloats(pb)
}
