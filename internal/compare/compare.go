// Package compare implements the criteria used to conclude that one learning
// algorithm outperforms another (Section 4) and the paper's recommended
// statistical protocol (Appendix C): the naive single-point comparison, the
// average comparison against a threshold δ, the paired t-test, and the
// recommended probability-of-outperforming test P(A>B) with a
// percentile-bootstrap confidence interval and the three-zone decision rule.
package compare

import (
	"fmt"
	"math"

	"varbench/internal/stats"
)

// Decision is the three-zone outcome of the recommended test (Appendix C.6).
type Decision int

const (
	// NotSignificant: CI.Lo ≤ 0.5 — the result could be noise alone.
	NotSignificant Decision = iota
	// SignificantNotMeaningful: CI.Lo > 0.5 but CI.Hi ≤ γ — a real but
	// negligibly small difference.
	SignificantNotMeaningful
	// SignificantAndMeaningful: CI.Lo > 0.5 and CI.Hi > γ — conclude that A
	// outperforms B.
	SignificantAndMeaningful
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case NotSignificant:
		return "not significant"
	case SignificantNotMeaningful:
		return "significant but not meaningful"
	case SignificantAndMeaningful:
		return "significant and meaningful"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// DefaultGamma is the paper's recommended meaningfulness threshold for
// P(A>B), found to separate benchmark fluctuations from published
// improvements across all five case studies (Section 5).
const DefaultGamma = 0.75

// DefaultDeltaCoefficient is the paper's regression coefficient relating the
// average-comparison threshold δ to the benchmark standard deviation σ:
// δ = 1.9952·σ matches the average improvements on paperswithcode.com
// (Section 4.2).
const DefaultDeltaCoefficient = 1.9952

// Criterion decides, from k paired performance measures, whether algorithm A
// should be declared better than algorithm B. Every criterion is a
// deterministic function of the pairs.
type Criterion interface {
	Name() string
	Detects(pairs []stats.Pair) bool
}

// SinglePoint compares one run of each algorithm against the threshold
// Delta: the weakest common practice (k is ignored beyond the first pair).
type SinglePoint struct {
	Delta float64
}

// Name implements Criterion.
func (SinglePoint) Name() string { return "single-point" }

// Detects implements Criterion.
func (c SinglePoint) Detects(pairs []stats.Pair) bool {
	if len(pairs) == 0 {
		return false
	}
	return pairs[0].A-pairs[0].B > c.Delta
}

// AverageThreshold declares A better when the average difference exceeds
// Delta — the prevalent comparison method in the deep-learning literature.
type AverageThreshold struct {
	Delta float64
}

// Name implements Criterion.
func (AverageThreshold) Name() string { return "average" }

// Detects implements Criterion.
func (c AverageThreshold) Detects(pairs []stats.Pair) bool {
	if len(pairs) == 0 {
		return false
	}
	var diff float64
	for _, p := range pairs {
		diff += p.A - p.B
	}
	return diff/float64(len(pairs)) > c.Delta
}

// PairedT declares A better when a paired t-test rejects equality at level
// Alpha in favour of A — "a t-test only differs from an average in that the
// threshold is computed based on the variance of the model performances and
// the sample size" (Section 4.2).
type PairedT struct {
	Alpha float64
}

// Name implements Criterion.
func (PairedT) Name() string { return "paired-t" }

// Detects implements Criterion.
func (c PairedT) Detects(pairs []stats.Pair) bool {
	if len(pairs) < 2 {
		return false
	}
	a := make([]float64, len(pairs))
	b := make([]float64, len(pairs))
	allEqual := true
	for i, p := range pairs {
		a[i], b[i] = p.A, p.B
		if p.A != p.B {
			allEqual = false
		}
	}
	if allEqual {
		return false
	}
	res := stats.PairedTTest(a, b, stats.GreaterTailed)
	return res.PValue < c.Alpha
}

// PAB is the paper's recommended criterion: estimate P(A>B) from the paired
// measures (Equation 9), attach a percentile-bootstrap confidence interval
// (Appendix C.5), and require the result to be both statistically
// significant (CI.Lo > 0.5) and meaningful (CI.Hi > Gamma). On paired
// measures the interval is the bootstrap's exact K → ∞ limit
// (stats.PABCountsCI), so Bootstrap applies to the unpaired test only.
type PAB struct {
	Gamma     float64 // meaningfulness threshold (default 0.75)
	Level     float64 // CI confidence level (default 0.95)
	Bootstrap int     // unpaired resamples (default 1000)
}

// Name implements Criterion.
func (PAB) Name() string { return "prob-outperform" }

func (c PAB) gamma() float64 {
	if c.Gamma == 0 {
		return DefaultGamma
	}
	return c.Gamma
}

func (c PAB) level() float64 {
	if c.Level == 0 {
		return 0.95
	}
	return c.Level
}

func (c PAB) boots() int {
	if c.Bootstrap == 0 {
		return 1000
	}
	return c.Bootstrap
}

// Result is the full outcome of the recommended test.
type Result struct {
	PAB      float64
	CI       stats.CI
	Gamma    float64
	Decision Decision
}

// validate rejects statistical knobs the test cannot honor: an explicit
// negative resample count or a confidence level outside (0, 1). The zero
// values keep meaning "use the default".
func (c PAB) validate() error {
	if c.Bootstrap < 0 {
		return fmt.Errorf("compare: bootstrap resamples must not be negative, got %d (0 means default)", c.Bootstrap)
	}
	if l := c.level(); math.IsNaN(l) || l <= 0 || l >= 1 {
		return fmt.Errorf("compare: confidence level must be in (0, 1), got %v", c.Level)
	}
	return nil
}

// decide applies the three-zone decision rule of Appendix C.6.
func (c PAB) decide(point float64, ci stats.CI) Result {
	res := Result{PAB: point, CI: ci, Gamma: c.gamma()}
	switch {
	case ci.Lo <= 0.5:
		res.Decision = NotSignificant
	case ci.Hi <= c.gamma():
		res.Decision = SignificantNotMeaningful
	default:
		res.Decision = SignificantAndMeaningful
	}
	return res
}

// Evaluate runs the complete Appendix C protocol on paired measures: it
// counts the pairs A wins, ties and loses, and judges P(A>B) with the
// exact percentile interval of those counts. It draws no randomness.
func (c PAB) Evaluate(pairs []stats.Pair) (Result, error) {
	st, err := c.NewAnalysis()
	if err != nil {
		return Result{}, err
	}
	st.Extend(pairs)
	return st.Evaluate()
}

// Detects implements Criterion.
func (c PAB) Detects(pairs []stats.Pair) bool {
	res, err := c.Evaluate(pairs)
	if err != nil {
		return false
	}
	return res.Decision == SignificantAndMeaningful
}

// mwPAB is the Mann-Whitney U statistic scaled to [0,1]: the unpaired
// plug-in estimate of P(A>B). A rank statistic has no closed form over
// resamples, so the unpaired test bootstraps it on materialized resamples.
func mwPAB(x, y []float64) float64 {
	return stats.MannWhitney(x, y, stats.TwoTailed).PAB
}

// EvaluateUnpairedSharded runs the P(A>B) protocol on *unpaired* measures:
// P(A>B) is the Mann-Whitney U statistic scaled to [0,1], and the
// confidence interval bootstraps the two samples independently, sharded
// across `workers` goroutines. Shard boundaries and per-shard RNG streams
// depend only on (seed, Bootstrap), so the result is bit-identical at any
// worker count. Use when
// pairing is impossible (e.g. algorithms evaluated by different parties —
// the Section 6 "models instead of procedures" setting); pairing, when
// available, gives strictly more power (Appendix C.2).
func (c PAB) EvaluateUnpairedSharded(a, b []float64, seed uint64, workers int) (Result, error) {
	if len(a) < 2 || len(b) < 2 {
		return Result{}, fmt.Errorf("compare: need ≥ 2 measures per algorithm")
	}
	if err := c.validate(); err != nil {
		return Result{}, err
	}
	point := stats.MannWhitney(a, b, stats.TwoTailed).PAB
	ci := stats.TwoSampleBootstrapKernel(a, b, mwPAB, c.boots(), c.level(), seed, workers)
	return c.decide(point, ci), nil
}

// Oracle detects with perfect knowledge of the measurement noise: a z-test
// with the true per-measure standard deviation Sigma at level Alpha. It
// upper-bounds what any criterion can achieve from k noisy measures and is
// the blue reference line of Figure 6.
type Oracle struct {
	Sigma float64
	Alpha float64
}

// Name implements Criterion.
func (Oracle) Name() string { return "oracle" }

// Detects implements Criterion.
func (c Oracle) Detects(pairs []stats.Pair) bool {
	if len(pairs) == 0 {
		return false
	}
	alpha := c.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	var diff float64
	for _, p := range pairs {
		diff += p.A - p.B
	}
	diff /= float64(len(pairs))
	// Var of the mean difference for independent A, B with equal σ.
	se := c.Sigma * math.Sqrt(2/float64(len(pairs)))
	return diff > stats.NormQuantile(1-alpha)*se
}

// Pairs zips two equal-length measure vectors into pairs.
func Pairs(a, b []float64) ([]stats.Pair, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("compare: unpaired lengths %d vs %d", len(a), len(b))
	}
	out := make([]stats.Pair, len(a))
	for i := range a {
		out[i] = stats.Pair{A: a[i], B: b[i]}
	}
	return out, nil
}
