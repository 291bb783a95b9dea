package stats

import (
	"math"
	"sync"
	"sync/atomic"

	"varbench/internal/xrand"
)

// The sharded bootstrap: the K resamples are partitioned into shards whose
// boundaries and RNG streams depend only on (seed, K) — never on the worker
// count or on scheduling — so the resampled statistics, and therefore the
// confidence interval, are bit-identical at any parallelism. It runs the
// unpaired protocol's Mann-Whitney P(A>B); the paired P(A>B) needs no
// resampling at all (see PABCountsCI). All scratch (the resampled-statistic
// vector, the shard descriptors, the resample buffers) cycles through
// pools, so the serial engine allocates nothing in steady state.
//
// Determinism contract (the worker-count invariance and the golden reports
// rest on it):
//
//   - exactly one r.Intn(len(sample)) per sampled element, drawn in element
//     order: all of a's draws, then all of b's;
//   - no other reads of r, and no dependence on how [0, K) resamples are
//     partitioned across shards or workers.

// maxBootstrapShards bounds the shard count. 64 shards keep the work queue
// balanced for any plausible worker count while each shard still amortizes
// its RNG setup over many resamples at the recommended K=1000.
const maxBootstrapShards = 64

// BootstrapShards returns the number of shards the sharded bootstrap splits
// k resamples into. It is a pure function of k, which is what pins shard
// boundaries independently of the worker count.
func BootstrapShards(k int) int {
	if k < maxBootstrapShards {
		return k
	}
	return maxBootstrapShards
}

// bootstrapShard is one unit of sharded resampling work: fill vals[Lo:Hi)
// drawing only from R.
type bootstrapShard struct {
	Lo, Hi int
	R      xrand.Source
}

// bootstrapShardPrefix labels the per-shard child streams. The label bytes
// must stay exactly "bootstrap/shard/<index>": they pin the historical
// stream derivation.
const bootstrapShardPrefix = "bootstrap/shard/"

var (
	shardPool sync.Pool // *[]bootstrapShard
	floatPool sync.Pool // *[]float64; pooled by pointer so Put does not allocate
)

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

// getShards returns a pooled slice of n shards covering [0, k) with their
// (seed, index)-derived RNG streams seeded in place.
func getShards(k int, seed uint64) *[]bootstrapShard {
	n := BootstrapShards(k)
	p, _ := shardPool.Get().(*[]bootstrapShard)
	if p == nil || cap(*p) < n {
		s := make([]bootstrapShard, n)
		p = &s
	}
	*p = (*p)[:n]
	var root xrand.Source
	root.Seed(seed)
	prefix := xrand.HashLabel(bootstrapShardPrefix)
	shards := *p
	for s := range shards {
		shards[s].Lo = s * k / n
		shards[s].Hi = (s + 1) * k / n
		shards[s].R.Seed(root.SplitSeed(prefix.AppendInt(s)))
	}
	return p
}

// parallelShards runs work(s) for every shard s in [0, nsh), claimed one at
// a time by min(workers, nsh) goroutines, and returns once all are done.
// shardedVals fans out through it and keeps its serial loop inline instead,
// because the work closure escapes here and the serial path must not
// allocate.
func parallelShards(nsh, workers int, work func(s int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nsh); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < nsh; s = int(next.Add(1)) - 1 {
				work(s)
			}
		}()
	}
	wg.Wait()
}

// shardedVals fills vals with len(vals) resampled statistics of stat over
// (a, b), sharded across `workers` goroutines. The shard streams depend
// only on (seed, len(vals)) and shards write disjoint ranges, so the
// contents of vals are bit-identical at any worker count.
func shardedVals(vals []float64, a, b []float64, stat func(a, b []float64) float64, seed uint64, workers int) {
	sp := getShards(len(vals), seed)
	shards := *sp
	if min(workers, len(shards)) <= 1 {
		for i := range shards {
			sh := &shards[i]
			resampleInto(vals[sh.Lo:sh.Hi], a, b, stat, &sh.R)
		}
	} else {
		parallelShards(len(shards), workers, func(i int) {
			sh := &shards[i]
			resampleInto(vals[sh.Lo:sh.Hi], a, b, stat, &sh.R)
		})
	}
	shardPool.Put(sp)
}

// resampleInto sets each out[i] to stat over one resample of (a, b): all
// of a redrawn with replacement from r, then all of b, materialized in
// pooled buffers.
func resampleInto(out []float64, a, b []float64, stat func(a, b []float64) float64, r *xrand.Source) {
	pa, pb := getFloats(len(a)), getFloats(len(b))
	bufA, bufB := *pa, *pb
	for i := range out {
		xrand.SampleInto(r, bufA, a)
		xrand.SampleInto(r, bufB, b)
		out[i] = stat(bufA, bufB)
	}
	putFloats(pa)
	putFloats(pb)
}

// badBootstrap reports whether a bootstrap request is degenerate: nothing
// to resample, no resamples, or a confidence level outside (0, 1). The
// entry points answer such requests with a NaN CI (see nanCI) instead of
// panicking on empty or unsorted-garbage quantile input.
func badBootstrap(sampleLen, k int, level float64) bool {
	return sampleLen == 0 || k <= 0 || math.IsNaN(level) || level <= 0 || level >= 1
}

// nanCI is the documented degenerate-input answer: both endpoints NaN, the
// requested level echoed back. It consumes no randomness.
func nanCI(level float64) CI {
	return CI{Lo: math.NaN(), Hi: math.NaN(), Level: level}
}

// percentileCI reads the two-sided percentile interval off the resampled
// statistics via selection (O(K) expected, see select.go) instead of a full
// sort, reordering vals in place.
func percentileCI(vals []float64, level float64) CI {
	alpha := 1 - level
	lo, hi := quantiles2Select(vals, alpha/2, 1-alpha/2)
	return CI{Lo: lo, Hi: hi, Level: level}
}

// TwoSampleBootstrapKernel computes the sharded percentile-bootstrap CI of
// a two-sample statistic: K resamples, each redrawing both a and b
// independently with replacement, and the interval given by the α/2 and
// 1-α/2 empirical quantiles of the resampled statistics. Results depend
// only on (a, b, stat, k, level, seed): any worker count, including 1,
// produces bit-identical intervals. Degenerate input (an empty sample,
// k ≤ 0, level outside (0,1)) yields a NaN CI. This is the engine behind
// the unpaired (Mann-Whitney) variant of the recommended test.
func TwoSampleBootstrapKernel(a, b []float64, stat func(a, b []float64) float64, k int, level float64, seed uint64, workers int) CI {
	if badBootstrap(min(len(a), len(b)), k, level) {
		return nanCI(level)
	}
	vp := getFloats(k)
	vals := *vp
	shardedVals(vals, a, b, stat, seed, workers)
	ci := percentileCI(vals, level)
	putFloats(vp)
	return ci
}
