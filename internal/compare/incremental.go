package compare

import (
	"fmt"
	"math"

	"varbench/internal/stats"
)

// AnalysisState is the recommended test in running form. A paired
// resample sees the pairs only through how many A wins, ties and loses, so
// the state is those three counts plus the two score sums behind the
// report means: extending it costs O(new pairs), and feeding pairs in one
// call or many gives the same bits. Evaluate judges the counts with the
// exact percentile interval (stats.PABCountsCI).
//
// The running form is paired-only: the unpaired P(A>B) point estimate is
// the Mann-Whitney U statistic, a rank statistic that is not decomposable
// into extendable per-element sums — unpaired comparisons stay on the
// one-shot EvaluateUnpairedSharded path.
type AnalysisState struct {
	crit             PAB
	wins, ties, loss int
	// The means are running float sums in arrival order — the same order
	// and operations stats.Mean performs, so they match it bit for bit.
	sumA, sumB float64
}

// NewAnalysis starts an empty analysis.
func (c PAB) NewAnalysis() (*AnalysisState, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return &AnalysisState{crit: c}, nil
}

// N returns how many pairs the state has consumed.
func (st *AnalysisState) N() int { return st.wins + st.ties + st.loss }

// Add feeds one paired measure into the analysis.
func (st *AnalysisState) Add(a, b float64) {
	switch {
	case a > b:
		st.wins++
	case a == b:
		st.ties++
	default:
		st.loss++
	}
	st.sumA += a
	st.sumB += b
}

// Extend feeds paired measures into the analysis, in order.
func (st *AnalysisState) Extend(pairs []stats.Pair) {
	for _, p := range pairs {
		st.Add(p.A, p.B)
	}
}

// Point returns the plug-in estimate of P(A>B) over the consumed pairs: the
// fraction A wins, ties counted half (NaN before any pair exists). The win
// count is recovered exactly from the integer 2·wins + ties.
func (st *AnalysisState) Point() float64 {
	if st.N() == 0 {
		return math.NaN()
	}
	return float64(2*st.wins+st.ties) / 2 / float64(st.N())
}

// Means returns the running mean scores of the two pipelines —
// bit-identical to stats.Mean over each side's sequence (NaN before any
// pair exists).
func (st *AnalysisState) Means() (meanA, meanB float64) {
	if st.N() == 0 {
		return math.NaN(), math.NaN()
	}
	return st.sumA / float64(st.N()), st.sumB / float64(st.N())
}

// Evaluate runs the three-zone decision on the pairs consumed so far. It
// needs at least two pairs.
func (st *AnalysisState) Evaluate() (Result, error) {
	if n := st.N(); n < 2 {
		return Result{}, fmt.Errorf("compare: need ≥ 2 pairs, got %d", n)
	}
	ci := stats.PABCountsCI(st.wins, st.ties, st.loss, st.crit.level())
	return st.crit.decide(st.Point(), ci), nil
}
