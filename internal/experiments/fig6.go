package experiments

import (
	"fmt"
	"io"

	"varbench/internal/report"
	"varbench/internal/simulate"
	"varbench/internal/xrand"
)

// ModelStats parameterizes the Figure 6 simulation for one task. `varbench
// fig6` derives them from a Fig5 run on its first selected study;
// DefaultModelStats holds the regime the paper reports for Glue-RTE, which
// figI6 simulates.
type ModelStats struct {
	Task      string
	Sigma2    float64
	BiasVar   float64
	WithinVar float64
}

// DefaultModelStats returns simulation statistics in the regime the paper
// reports for the Glue-RTE case (σ ≈ 2% accuracy; HOpt bias a few percent of
// the total variance).
func DefaultModelStats() ModelStats {
	return ModelStats{
		Task:      "rte-bert",
		Sigma2:    0.0004,        // σ = 2% accuracy
		BiasVar:   0.0004 * 0.06, // Var(μ̃|ξ): ~6% of σ²
		WithinVar: 0.0004 * 0.94, // Var(R̂e|ξ)
	}
}

// Fig6Result is the detection-rate study of the comparison criteria.
type Fig6Result struct {
	Stats   ModelStats
	Gamma   float64
	Points  []simulate.Point
	Summary simulate.ErrorSummary
}

// Fig6 sweeps the true P(A>B) across [0.4, 1] and measures detection rates
// of the single-point, average-threshold and probability-of-outperforming
// criteria under the ideal and biased estimator models (Figure 6).
func Fig6(ms ModelStats, b Budget, seed uint64) (Fig6Result, error) {
	cfg := simulate.Config{NSim: b.SimulationsPerPoint}
	cfg = cfg.Defaults(ms.Sigma2)
	grid := []float64{0.40, 0.44, 0.48, 0.50, 0.55, 0.60, 0.65, 0.70,
		0.75, 0.80, 0.85, 0.90, 0.95, 0.99}
	ideal := simulate.Model{Sigma2: ms.Sigma2}
	biased := simulate.Model{Sigma2: ms.Sigma2, BiasVar: ms.BiasVar, WithinVar: ms.WithinVar}
	points, err := simulate.DetectionCurve(cfg, ideal, biased, grid, xrand.New(seed))
	if err != nil {
		return Fig6Result{}, err
	}
	return Fig6Result{
		Stats:   ms,
		Gamma:   cfg.Gamma,
		Points:  points,
		Summary: simulate.Summarize(points, cfg.Gamma),
	}, nil
}

// criteriaOrder fixes the column order of the rendering.
func criteriaOrder() []string {
	return []string{
		"oracle",
		"single-point/ideal", "single-point/biased",
		"average/ideal", "average/biased",
		"prob-outperform/ideal", "prob-outperform/biased",
	}
}

// Render writes the detection-rate table, plot, and error summary.
func (r Fig6Result) Render(w io.Writer) error {
	tb := &report.Table{
		Title: fmt.Sprintf(
			"Figure 6 — rate of detections (task model %s, γ=%.2f)", r.Stats.Task, r.Gamma),
		Headers: append([]string{"P(A>B)"}, criteriaOrder()...),
	}
	for _, pt := range r.Points {
		row := []interface{}{pt.TrueP}
		for _, c := range criteriaOrder() {
			row = append(row, pt.Rates[c])
		}
		tb.AddRow(row...)
	}
	if err := tb.Render(w); err != nil {
		return err
	}

	var series []report.Series
	for _, c := range []string{"oracle", "single-point/ideal", "average/ideal", "prob-outperform/ideal", "prob-outperform/biased"} {
		s := report.Series{Name: c}
		for _, pt := range r.Points {
			s.X = append(s.X, pt.TrueP)
			s.Y = append(s.Y, pt.Rates[c])
		}
		series = append(series, s)
	}
	fmt.Fprintln(w)
	if err := report.LinePlot(w, "detection rate vs true P(A>B)", series, 64, 14); err != nil {
		return err
	}

	sm := &report.Table{
		Title:   "error summary (FP over H0 region, FN over H1 region)",
		Headers: []string{"criterion", "false positive", "false negative"},
	}
	for _, c := range criteriaOrder() {
		sm.AddRow(c, r.Summary.FalsePositive[c], r.Summary.FalseNegative[c])
	}
	fmt.Fprintln(w)
	return sm.Render(w)
}

// CheckShape verifies the Figure 6 qualitative results.
func (r Fig6Result) CheckShape() []string {
	var issues []string
	fp := r.Summary.FalsePositive
	fn := r.Summary.FalseNegative
	if fp["single-point/ideal"] < fp["average/ideal"] {
		issues = append(issues, "single-point FP should exceed average FP")
	}
	if fn["average/ideal"] < fn["prob-outperform/ideal"] {
		issues = append(issues, "average FN should exceed PAB FN")
	}
	if fp["prob-outperform/ideal"] > 0.15 {
		issues = append(issues, fmt.Sprintf("PAB FP too high: %.3f", fp["prob-outperform/ideal"]))
	}
	if fn["single-point/ideal"] < fn["prob-outperform/ideal"] {
		issues = append(issues, "single-point FN should exceed PAB FN")
	}
	return issues
}
