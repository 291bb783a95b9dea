package stats

import (
	"sync"

	"varbench/internal/xrand"
)

// The statistic-kernel layer of the bootstrap engine. A kernel owns the
// whole resampling loop for one statistic, which lets the statistic the
// recommended protocol actually uses — the P(A>B) win count — accumulate
// directly from sampled indices: no resample buffer, no closure call per
// resample, no per-resample allocation. Other statistics (the unpaired
// protocol's Mann-Whitney P(A>B)) keep the buffered path through the
// PairStatFunc/TwoSampleStatFunc adapters, which materialize each resample
// in a pooled scratch buffer and call the closure.
//
// Determinism contract (every implementation MUST obey it, or worker-count
// invariance and the golden reports break):
//
//   - exactly one r.Intn(len(sample)) per sampled element, drawn in element
//     order (for two-sample kernels: all of a's draws, then all of b's);
//   - out[i] must be bit-identical to computing the buffered statistic on
//     the materialized resample — same floating-point operations in the
//     same order as the closure counterpart;
//   - no other reads of r, and no dependence on how [0, len(out)) resamples
//     are partitioned across shards or workers.
//
// Under this contract a fused kernel is observationally identical to its
// closure counterpart — every CI, report and golden test stays bit-identical
// at any worker count — and the speedup is visible only in ns/op and B/op.

// A PairedKernel computes a paired-sample statistic over bootstrap
// resamples of whole pairs (resampling pairs jointly preserves the pairing,
// Appendix C.2).
type PairedKernel interface {
	Stat(pairs []Pair) float64
	ResampleInto(out []float64, pairs []Pair, r *xrand.Source)
}

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

var pairPool sync.Pool // *[]Pair

func getPairs(n int) *[]Pair {
	if p, _ := pairPool.Get().(*[]Pair); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]Pair, n)
	return &s
}

func putPairs(p *[]Pair) { pairPool.Put(p) }

var intPool sync.Pool // *[]int64

func getInts(n int) *[]int64 {
	if p, _ := intPool.Get().(*[]int64); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]int64, n)
	return &s
}

func putInts(p *[]int64) { intPool.Put(p) }

// ---------------------------------------------------------------------------
// Paired kernels.

// PABKernel is the fused kernel for the plug-in estimator of P(A>B) over
// paired measures (Equation 9): the fraction of pairs A wins, ties counted
// half. This is the statistic of the recommended protocol's hot loop.
type PABKernel struct{}

// Stat implements PairedKernel.
func (PABKernel) Stat(pairs []Pair) float64 {
	wins := 0.0
	for _, pr := range pairs {
		switch {
		case pr.A > pr.B:
			wins++
		case pr.A == pr.B:
			wins += 0.5
		}
	}
	return wins / float64(len(pairs))
}

// ResampleInto implements PairedKernel. Each pair's win contribution is
// precomputed once per call as an integer twice-the-weight (2, 1 or 0), so
// the per-draw work is one index draw and one integer addition — integer
// accumulation sidesteps the floating-point add latency chain. The float
// win count is recovered exactly: every partial sum of 1 and ½ increments
// is a dyadic rational below 2^52, so float64(sum)/2 equals the reference
// accumulation bit-for-bit, and the final division by n uses the identical
// operands.
func (PABKernel) ResampleInto(out []float64, pairs []Pair, r *xrand.Source) {
	n := len(pairs)
	wp := getInts(n)
	w := *wp
	for i, pr := range pairs {
		switch {
		case pr.A > pr.B:
			w[i] = 2
		case pr.A == pr.B:
			w[i] = 1
		default:
			w[i] = 0
		}
	}
	for b := range out {
		out[b] = float64(r.SampleSumInt(w, n)) / 2 / float64(n)
	}
	putInts(wp)
}

// PairStatFunc adapts an arbitrary paired statistic to the PairedKernel
// interface: the buffered path. Each resample is materialized in a pooled
// scratch buffer (acquired once per ResampleInto call) and handed to the
// closure. It is the reference PABKernel is tested against.
type PairStatFunc func([]Pair) float64

// Stat implements PairedKernel.
func (f PairStatFunc) Stat(pairs []Pair) float64 { return f(pairs) }

// ResampleInto implements PairedKernel.
func (f PairStatFunc) ResampleInto(out []float64, pairs []Pair, r *xrand.Source) {
	sp := getPairs(len(pairs))
	buf := *sp
	for b := range out {
		xrand.SampleInto(r, buf, pairs)
		out[b] = f(buf)
	}
	putPairs(sp)
}

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
