// Package simulate implements the Section 4.2 simulation study: given
// variance statistics measured on the case studies, it simulates
// realizations of the ideal and biased estimators for two algorithms whose
// true probability of outperforming P(A>B) is swept across [0.4, 1], applies
// each comparison criterion, and records detection rates (Figures 6 and
// I.6).
package simulate

import (
	"fmt"
	"math"

	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// Model describes how performance measures of one algorithm are generated.
type Model struct {
	// Sigma2 is Var(R̂e), the per-measure variance under the ideal
	// estimator.
	Sigma2 float64
	// BiasVar is Var(μ̃(k)|ξ): the variance of the biased estimator's bias
	// across hyperparameter-optimization outcomes. Zero simulates the ideal
	// estimator.
	BiasVar float64
	// WithinVar is Var(R̂e|ξ): the within-realization variance of the
	// biased estimator. Ignored when BiasVar is 0.
	WithinVar float64
}

// Ideal reports whether the model is the ideal (unbiased) generator.
func (m Model) Ideal() bool { return m.BiasVar == 0 }

// Sample draws k performance measures for an algorithm with mean mu.
// Ideal model: R̂e ~ N(mu, Sigma2), i.i.d.
// Biased model (two-stage, Section 4.2): b ~ N(0, BiasVar), then
// R̂e ~ N(mu+b, WithinVar).
func (m Model) Sample(mu float64, k int, r *xrand.Source) []float64 {
	out := make([]float64, k)
	if m.Ideal() {
		sd := math.Sqrt(m.Sigma2)
		for i := range out {
			out[i] = r.Normal(mu, sd)
		}
		return out
	}
	b := r.Normal(0, math.Sqrt(m.BiasVar))
	sd := math.Sqrt(m.WithinVar)
	for i := range out {
		out[i] = r.Normal(mu+b, sd)
	}
	return out
}

// MeanDiffForPAB returns the mean difference µA−µB that produces a true
// probability of outperforming P(A>B) = p for two independent algorithms
// with per-measure variance sigma2 each: µA−µB = Φ⁻¹(p)·√(2σ²).
func MeanDiffForPAB(p, sigma2 float64) float64 {
	return stats.NormQuantile(p) * math.Sqrt(2*sigma2)
}

// Config parameterizes one detection-rate study.
type Config struct {
	K     int     // measures per algorithm per simulation (paper: 50)
	NSim  int     // simulations per grid point
	Gamma float64 // PAB meaningfulness threshold (paper: 0.75)
	Delta float64 // average/single-point threshold (paper: 1.9952σ)
	Alpha float64 // significance level for t-test and oracle
}

// Defaults fills unset fields with the paper's values, deriving Delta from
// sigma2 when it is zero.
func (c Config) Defaults(sigma2 float64) Config {
	if c.K == 0 {
		c.K = 50
	}
	if c.NSim == 0 {
		c.NSim = 200
	}
	if c.Gamma == 0 {
		c.Gamma = compare.DefaultGamma
	}
	if c.Delta == 0 {
		c.Delta = compare.DefaultDeltaCoefficient * math.Sqrt(sigma2)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	return c
}

// Point is the detection rate of every criterion at one true P(A>B).
type Point struct {
	TrueP float64
	// Rates maps criterion label → fraction of simulations that declared
	// "A better than B".
	Rates map[string]float64
}

// Region classifies a true P(A>B) into the three zones of Figure 6.
type Region int

const (
	// RegionH0: P ≤ 0.5, any detection is a false positive.
	RegionH0 Region = iota
	// RegionGrey: 0.5 < P < γ, significant but not meaningful.
	RegionGrey
	// RegionH1: P ≥ γ, a miss is a false negative.
	RegionH1
)

// Classify returns the region of trueP relative to gamma.
func Classify(trueP, gamma float64) Region {
	switch {
	case trueP <= 0.5:
		return RegionH0
	case trueP < gamma:
		return RegionGrey
	default:
		return RegionH1
	}
}

// DetectionCurve sweeps true P(A>B) over grid and measures the detection
// rate of each criterion under both the ideal and the biased sampling
// models. Labels follow Figure 6: "<criterion>/<ideal|biased>" plus
// "oracle".
func DetectionCurve(cfg Config, ideal, biased Model, grid []float64,
	r *xrand.Source) ([]Point, error) {
	if ideal.Sigma2 <= 0 {
		return nil, fmt.Errorf("simulate: ideal model needs positive Sigma2")
	}
	cfg = cfg.Defaults(ideal.Sigma2)

	criteria := []compare.Criterion{
		compare.SinglePoint{Delta: cfg.Delta},
		compare.AverageThreshold{Delta: cfg.Delta},
		compare.PAB{Gamma: cfg.Gamma},
	}
	oracle := compare.Oracle{Sigma: math.Sqrt(ideal.Sigma2), Alpha: cfg.Alpha}

	points := make([]Point, 0, len(grid))
	for _, p := range grid {
		diff := MeanDiffForPAB(p, ideal.Sigma2)
		counts := map[string]int{}
		for sim := 0; sim < cfg.NSim; sim++ {
			for _, model := range []struct {
				label string
				m     Model
			}{{"ideal", ideal}, {"biased", biased}} {
				a := model.m.Sample(diff, cfg.K, r)
				b := model.m.Sample(0, cfg.K, r)
				pairs, err := compare.Pairs(a, b)
				if err != nil {
					return nil, err
				}
				for _, c := range criteria {
					if c.Detects(pairs) {
						counts[c.Name()+"/"+model.label]++
					}
				}
				if model.label == "ideal" && oracle.Detects(pairs) {
					counts["oracle"]++
				}
			}
		}
		rates := make(map[string]float64, len(counts))
		for _, c := range criteria {
			for _, ml := range []string{"ideal", "biased"} {
				key := c.Name() + "/" + ml
				rates[key] = float64(counts[key]) / float64(cfg.NSim)
			}
		}
		rates["oracle"] = float64(counts["oracle"]) / float64(cfg.NSim)
		points = append(points, Point{TrueP: p, Rates: rates})
	}
	return points, nil
}

// ErrorSummary aggregates a detection curve into the Figure 6 headline
// numbers: the false-positive rate over the H0 region and the
// false-negative rate over the H1 region, per criterion.
type ErrorSummary struct {
	FalsePositive map[string]float64
	FalseNegative map[string]float64
}

// Summarize computes region-averaged error rates from a detection curve.
func Summarize(points []Point, gamma float64) ErrorSummary {
	fpSum := map[string]float64{}
	fnSum := map[string]float64{}
	fpN, fnN := 0, 0
	for _, pt := range points {
		switch Classify(pt.TrueP, gamma) {
		case RegionH0:
			fpN++
			for k, v := range pt.Rates {
				fpSum[k] += v
			}
		case RegionH1:
			fnN++
			for k, v := range pt.Rates {
				fnSum[k] += 1 - v
			}
		}
	}
	out := ErrorSummary{
		FalsePositive: map[string]float64{},
		FalseNegative: map[string]float64{},
	}
	for k, v := range fpSum {
		out.FalsePositive[k] = v / float64(fpN)
	}
	for k, v := range fnSum {
		out.FalseNegative[k] = v / float64(fnN)
	}
	return out
}

// RobustnessPoint is one cell of Figure I.6: detection rate as a function of
// sample size or γ for a fixed true P(A>B).
type RobustnessPoint struct {
	TrueP  float64
	X      float64 // sample size N or threshold γ
	Rates  map[string]float64
	Sweep  string // "n" or "gamma"
	Gamma  float64
	Deltas float64
}

// SampleSizeSweep measures detection rates of the average, PAB, and paired-t
// criteria as the number of paired measures varies (Figure I.6, top row).
// The average threshold is converted from γ via δ = Φ⁻¹(γ)·σ, as in
// Appendix I.
func SampleSizeSweep(cfg Config, ideal Model, trueP float64, ns []int,
	r *xrand.Source) ([]RobustnessPoint, error) {
	if ideal.Sigma2 <= 0 {
		return nil, fmt.Errorf("simulate: ideal model needs positive Sigma2")
	}
	cfg = cfg.Defaults(ideal.Sigma2)
	delta := stats.NormQuantile(cfg.Gamma) * math.Sqrt(ideal.Sigma2)
	diff := MeanDiffForPAB(trueP, ideal.Sigma2)
	out := make([]RobustnessPoint, 0, len(ns))
	for _, n := range ns {
		counts := map[string]int{}
		criteria := []compare.Criterion{
			compare.AverageThreshold{Delta: delta},
			compare.PAB{Gamma: cfg.Gamma},
			compare.PairedT{Alpha: cfg.Alpha},
		}
		for sim := 0; sim < cfg.NSim; sim++ {
			a := ideal.Sample(diff, n, r)
			b := ideal.Sample(0, n, r)
			pairs, err := compare.Pairs(a, b)
			if err != nil {
				return nil, err
			}
			for _, c := range criteria {
				if c.Detects(pairs) {
					counts[c.Name()]++
				}
			}
		}
		rates := map[string]float64{}
		for k, v := range counts {
			rates[k] = float64(v) / float64(cfg.NSim)
		}
		for _, c := range criteria {
			if _, ok := rates[c.Name()]; !ok {
				rates[c.Name()] = 0
			}
		}
		out = append(out, RobustnessPoint{
			TrueP: trueP, X: float64(n), Rates: rates, Sweep: "n",
			Gamma: cfg.Gamma, Deltas: delta,
		})
	}
	return out, nil
}

// GammaSweep measures detection rates as the meaningfulness threshold γ
// varies (Figure I.6, bottom row), with the average threshold following
// δ = Φ⁻¹(γ)·σ.
func GammaSweep(cfg Config, ideal Model, trueP float64, gammas []float64,
	r *xrand.Source) ([]RobustnessPoint, error) {
	if ideal.Sigma2 <= 0 {
		return nil, fmt.Errorf("simulate: ideal model needs positive Sigma2")
	}
	cfg = cfg.Defaults(ideal.Sigma2)
	diff := MeanDiffForPAB(trueP, ideal.Sigma2)
	out := make([]RobustnessPoint, 0, len(gammas))
	for _, g := range gammas {
		delta := stats.NormQuantile(g) * math.Sqrt(ideal.Sigma2)
		criteria := []compare.Criterion{
			compare.AverageThreshold{Delta: delta},
			compare.PAB{Gamma: g},
			compare.PairedT{Alpha: cfg.Alpha},
		}
		counts := map[string]int{}
		for sim := 0; sim < cfg.NSim; sim++ {
			a := ideal.Sample(diff, cfg.K, r)
			b := ideal.Sample(0, cfg.K, r)
			pairs, err := compare.Pairs(a, b)
			if err != nil {
				return nil, err
			}
			for _, c := range criteria {
				if c.Detects(pairs) {
					counts[c.Name()]++
				}
			}
		}
		rates := map[string]float64{}
		for _, c := range criteria {
			rates[c.Name()] = float64(counts[c.Name()]) / float64(cfg.NSim)
		}
		out = append(out, RobustnessPoint{
			TrueP: trueP, X: g, Rates: rates, Sweep: "gamma",
			Gamma: g, Deltas: delta,
		})
	}
	return out, nil
}
