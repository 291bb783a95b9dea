package compare

import (
	"encoding/binary"
	"fmt"
	"math"

	"varbench/internal/stats"
)

// AnalysisState is the incremental form of the recommended test: it holds a
// resumable weighted-bootstrap accumulator of P(A>B) (stats.AccPAB) plus the
// exact running sums behind the point estimate and the report means, and
// extends in place as new paired measures arrive. Feeding pairs in one call
// or many is bit-identical (the stats.Accum extension contract), so a
// batch loop threads one state through all batch boundaries instead of
// re-running the full analysis at each, and a snapshot taken at any point
// resumes exactly.
//
// The incremental protocol is paired-only: the unpaired P(A>B) point
// estimate is the Mann-Whitney U statistic, a rank statistic that is not
// decomposable into extendable per-element sums — unpaired comparisons stay
// on the one-shot EvaluateUnpairedSharded path.
//
// Note the confidence interval comes from the weighted (Bayesian) bootstrap,
// which is statistically equivalent to — but not numerically identical to —
// the classic multinomial percentile bootstrap of Evaluate/EvaluateSharded;
// see internal/stats/incremental.go. The point estimate is the same plug-in
// P(A>B) of Equation 9, bit-identical to PABKernel.Stat.
type AnalysisState struct {
	crit    PAB
	workers int
	acc     *stats.Accum
	// Exact running sums: the plug-in point estimate and the report means
	// must not drift from their one-shot counterparts, so wins are kept as
	// the PR-5 integer 2×-weights (exact dyadic recovery) and the means as
	// running float sums in arrival order — the same order and operations
	// stats.Mean and PABKernel.Stat perform.
	winsX2     int64
	sumA, sumB float64
	n          int
}

// NewAnalysis starts an empty incremental analysis drawing all bootstrap
// randomness from seed; `workers` parallelizes extensions (≤ 1 means
// serial) without affecting any result bit.
func (c PAB) NewAnalysis(seed uint64, workers int) (*AnalysisState, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	acc, err := stats.NewAccum(stats.AccPAB, c.boots(), seed)
	if err != nil {
		return nil, err
	}
	return &AnalysisState{crit: c, workers: workers, acc: acc}, nil
}

// N returns how many pairs the state has consumed.
func (st *AnalysisState) N() int { return st.n }

// Bootstrap returns the resample count K.
func (st *AnalysisState) Bootstrap() int { return st.acc.K() }

// Seed returns the root seed of the bootstrap weight streams.
func (st *AnalysisState) Seed() uint64 { return st.acc.Seed() }

// Extend feeds newly arrived paired measures into the analysis. Extending
// by any chunking is bit-identical to the from-scratch analysis of the full
// sequence.
func (st *AnalysisState) Extend(pairs []stats.Pair) error {
	for _, p := range pairs {
		switch {
		case p.A > p.B:
			st.winsX2 += 2
		case p.A == p.B:
			st.winsX2++
		}
		st.sumA += p.A
		st.sumB += p.B
	}
	if err := st.acc.ExtendPairs(pairs, st.workers); err != nil {
		return err
	}
	st.n += len(pairs)
	return nil
}

// Point returns the plug-in estimate of P(A>B) over the consumed pairs —
// bit-identical to PABKernel.Stat on the same sequence (NaN before any pair
// exists).
func (st *AnalysisState) Point() float64 {
	if st.n == 0 {
		return math.NaN()
	}
	return float64(st.winsX2) / 2 / float64(st.n)
}

// Means returns the running mean scores of the two pipelines —
// bit-identical to stats.Mean over each side's sequence (NaN before any
// pair exists).
func (st *AnalysisState) Means() (meanA, meanB float64) {
	if st.n == 0 {
		return math.NaN(), math.NaN()
	}
	return st.sumA / float64(st.n), st.sumB / float64(st.n)
}

// Evaluate runs the three-zone decision on the pairs consumed so far.
// Like Evaluate on the one-shot path, it needs at least two pairs.
func (st *AnalysisState) Evaluate() (Result, error) {
	if st.n < 2 {
		return Result{}, fmt.Errorf("compare: need ≥ 2 pairs, got %d", st.n)
	}
	ci := st.acc.CI(st.crit.level())
	return st.crit.decide(st.Point(), ci), nil
}

// ---------------------------------------------------------------------------
// Snapshots. An AnalysisState serializes as a fixed header over the exact
// running sums followed by the embedded accumulator blob (whose layout is
// documented in internal/stats/incremental.go):
//
//	offset size field
//	0      6    magic "VBANS1"
//	6      8    n       (uint64 LE)
//	14     8    winsX2  (int64 LE)
//	22     8    sumA    (float64 bits LE)
//	30     8    sumB    (float64 bits LE)
//	38     …    stats.Accum snapshot
//
// The trailing magic digit is the format version.

const analysisMagic = "VBANS1"

const analysisHeaderSize = len(analysisMagic) + 4*8

// Snapshot serializes the analysis so RestoreAnalysis can resume it
// bit-identically in a later process.
func (st *AnalysisState) Snapshot() ([]byte, error) {
	accBlob, err := st.acc.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, analysisHeaderSize+len(accBlob))
	copy(buf, analysisMagic)
	off := len(analysisMagic)
	for _, v := range []uint64{
		uint64(st.n),
		uint64(st.winsX2),
		math.Float64bits(st.sumA),
		math.Float64bits(st.sumB),
	} {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	copy(buf[off:], accBlob)
	return buf, nil
}

// RestoreAnalysis resumes an analysis from a Snapshot blob. The criterion's
// resample count must match the snapshot's K and the snapshot's internal
// counts must be coherent — a stale or corrupt snapshot is rejected whole,
// never partially applied, so callers fall back to recomputing from
// scratch.
func (c PAB) RestoreAnalysis(data []byte, workers int) (*AnalysisState, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(data) < analysisHeaderSize || string(data[:len(analysisMagic)]) != analysisMagic {
		return nil, fmt.Errorf("compare: not an analysis snapshot (bad magic or truncated header)")
	}
	off := len(analysisMagic)
	word := func() uint64 {
		v := binary.LittleEndian.Uint64(data[off:])
		off += 8
		return v
	}
	n64 := word()
	winsX2 := int64(word())
	sumA := math.Float64frombits(word())
	sumB := math.Float64frombits(word())
	acc, err := stats.RestoreAccum(data[off:])
	if err != nil {
		return nil, err
	}
	if acc.K() != c.boots() {
		return nil, fmt.Errorf("compare: snapshot has K=%d resamples, criterion wants %d",
			acc.K(), c.boots())
	}
	const maxN = 1 << 62
	if n64 > maxN || int(n64) != acc.N() {
		return nil, fmt.Errorf("compare: snapshot pair count %d disagrees with accumulator (%d)",
			n64, acc.N())
	}
	if winsX2 < 0 || winsX2 > 2*int64(n64) {
		return nil, fmt.Errorf("compare: snapshot win weight %d out of range for %d pairs", winsX2, n64)
	}
	return &AnalysisState{
		crit:    c,
		workers: workers,
		acc:     acc,
		winsX2:  winsX2,
		sumA:    sumA,
		sumB:    sumB,
		n:       int(n64),
	}, nil
}
