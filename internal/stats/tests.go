package stats

import (
	"math"
	"sort"
)

// TestResult reports a test statistic and its p-value.
type TestResult struct {
	Stat   float64 // the test statistic (z, t, U, W, ... depending on the test)
	PValue float64
}

// Tail selects the alternative hypothesis direction.
type Tail int

const (
	// TwoTailed tests H1: the distributions differ.
	TwoTailed Tail = iota
	// GreaterTailed tests H1: the first sample is stochastically greater.
	GreaterTailed
	// LessTailed tests H1: the first sample is stochastically smaller.
	LessTailed
)

func pFromZ(z float64, tail Tail) float64 {
	switch tail {
	case GreaterTailed:
		return 1 - NormCDF(z)
	case LessTailed:
		return NormCDF(z)
	default:
		return 2 * (1 - NormCDF(math.Abs(z)))
	}
}

// PairedTTest performs a one-sample t test on the differences x[i]-y[i].
func PairedTTest(x, y []float64, tail Tail) TestResult {
	if len(x) != len(y) {
		panic("stats: paired t test needs equal lengths")
	}
	d := make([]float64, len(x))
	for i := range x {
		d[i] = x[i] - y[i]
	}
	n := float64(len(d))
	t := Mean(d) / (Std(d) / math.Sqrt(n))
	dist := StudentT{Nu: n - 1}
	var p float64
	switch tail {
	case GreaterTailed:
		p = 1 - dist.CDF(t)
	case LessTailed:
		p = dist.CDF(t)
	default:
		p = 2 * (1 - dist.CDF(math.Abs(t)))
	}
	return TestResult{Stat: t, PValue: p}
}

// MannWhitneyResult extends TestResult with the U statistic and the
// probability-of-outperforming estimate the paper builds its recommended
// criterion on: P(A>B) = U/(n·m) (ties counted half).
type MannWhitneyResult struct {
	U      float64 // U statistic of the first sample
	PAB    float64 // U/(n·m): estimate of P(A > B)
	Z      float64 // normal approximation with tie correction
	PValue float64
}

// MannWhitney performs the Mann-Whitney U test (Wilcoxon rank-sum) with
// midrank tie handling and the normal approximation with tie-corrected
// variance and continuity correction.
func MannWhitney(a, b []float64, tail Tail) MannWhitneyResult {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return MannWhitneyResult{U: math.NaN(), PAB: math.NaN(), Z: math.NaN(), PValue: math.NaN()}
	}
	all := make([]float64, 0, n+m)
	all = append(all, a...)
	all = append(all, b...)
	ranks := Ranks(all)
	ra := 0.0
	for i := 0; i < n; i++ {
		ra += ranks[i]
	}
	u := ra - float64(n)*float64(n+1)/2

	nm := float64(n) * float64(m)
	meanU := nm / 2
	// Tie correction: Σ(t³-t) over tie groups.
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	tieSum := 0.0
	total := n + m
	for i := 0; i < total; {
		j := i
		for j+1 < total && sorted[j+1] == sorted[i] {
			j++
		}
		t := float64(j - i + 1)
		if t > 1 {
			tieSum += t*t*t - t
		}
		i = j + 1
	}
	nTot := float64(total)
	varU := nm / 12 * (nTot + 1 - tieSum/(nTot*(nTot-1)))
	if varU <= 0 {
		// All values identical: no evidence either way.
		return MannWhitneyResult{U: u, PAB: 0.5, Z: 0, PValue: 1}
	}
	// Continuity correction toward the mean.
	var cc float64
	switch {
	case u > meanU:
		cc = -0.5
	case u < meanU:
		cc = 0.5
	}
	z := (u - meanU + cc) / math.Sqrt(varU)
	return MannWhitneyResult{
		U:      u,
		PAB:    u / nm,
		Z:      z,
		PValue: pFromZ(z, tail),
	}
}

// WilcoxonSignedRank performs the paired Wilcoxon signed-rank test with the
// normal approximation, dropping zero differences and using midranks.
// Recommended by Demšar (2006) for classifier comparison across datasets;
// included for the Section 6 multiple-dataset discussion.
func WilcoxonSignedRank(x, y []float64, tail Tail) TestResult {
	if len(x) != len(y) {
		panic("stats: Wilcoxon needs equal lengths")
	}
	var d []float64
	for i := range x {
		if diff := x[i] - y[i]; diff != 0 {
			d = append(d, diff)
		}
	}
	n := len(d)
	if n == 0 {
		return TestResult{Stat: 0, PValue: 1}
	}
	abs := make([]float64, n)
	for i, v := range d {
		abs[i] = math.Abs(v)
	}
	ranks := Ranks(abs)
	wPlus := 0.0
	for i, v := range d {
		if v > 0 {
			wPlus += ranks[i]
		}
	}
	nf := float64(n)
	meanW := nf * (nf + 1) / 4
	// Tie correction on the absolute values.
	sorted := append([]float64(nil), abs...)
	sort.Float64s(sorted)
	tieSum := 0.0
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		t := float64(j - i + 1)
		if t > 1 {
			tieSum += t*t*t - t
		}
		i = j + 1
	}
	varW := nf*(nf+1)*(2*nf+1)/24 - tieSum/48
	if varW <= 0 {
		return TestResult{Stat: wPlus, PValue: 1}
	}
	var cc float64
	switch {
	case wPlus > meanW:
		cc = -0.5
	case wPlus < meanW:
		cc = 0.5
	}
	z := (wPlus - meanW + cc) / math.Sqrt(varW)
	return TestResult{Stat: wPlus, PValue: pFromZ(z, tail)}
}
