package experiments

import (
	"fmt"
	"io"

	"varbench/internal/report"
	"varbench/internal/simulate"
	"varbench/internal/xrand"
)

// FigI6Result is the robustness analysis of the comparison methods
// (Appendix I): detection rates as functions of sample size and of the
// threshold γ, for several true P(A>B).
type FigI6Result struct {
	Stats       ModelStats
	TruePs      []float64
	SampleSizes []int
	Gammas      []float64
	// BySampleSize[p] holds the sweep over sample sizes at true P = p.
	BySampleSize map[float64][]simulate.RobustnessPoint
	// ByGamma[p] holds the sweep over γ at true P = p.
	ByGamma map[float64][]simulate.RobustnessPoint
}

// FigI6 runs both sweeps of Figure I.6.
func FigI6(ms ModelStats, b Budget, seed uint64) (FigI6Result, error) {
	res := FigI6Result{
		Stats:        ms,
		TruePs:       []float64{0.5, 0.6, 0.7, 0.8},
		SampleSizes:  []int{5, 10, 20, 30, 50, 75, 100},
		Gammas:       []float64{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9},
		BySampleSize: map[float64][]simulate.RobustnessPoint{},
		ByGamma:      map[float64][]simulate.RobustnessPoint{},
	}
	cfg := simulate.Config{NSim: b.SimulationsPerPoint}
	ideal := simulate.Model{Sigma2: ms.Sigma2}
	r := xrand.New(seed)
	for _, p := range res.TruePs {
		pts, err := simulate.SampleSizeSweep(cfg, ideal, p, res.SampleSizes, r)
		if err != nil {
			return FigI6Result{}, err
		}
		res.BySampleSize[p] = pts
		gpts, err := simulate.GammaSweep(cfg, ideal, p, res.Gammas, r)
		if err != nil {
			return FigI6Result{}, err
		}
		res.ByGamma[p] = gpts
	}
	return res, nil
}

// Render writes both sweeps as tables.
func (r FigI6Result) Render(w io.Writer) error {
	for _, p := range r.TruePs {
		tb := &report.Table{
			Title:   fmt.Sprintf("Figure I.6 — detection rate vs sample size (true P(A>B)=%.1f)", p),
			Headers: []string{"N", "average", "prob-outperform", "paired-t"},
		}
		for _, pt := range r.BySampleSize[p] {
			tb.AddRow(int(pt.X), pt.Rates["average"], pt.Rates["prob-outperform"], pt.Rates["paired-t"])
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.TruePs {
		tb := &report.Table{
			Title:   fmt.Sprintf("Figure I.6 — detection rate vs γ (true P(A>B)=%.1f)", p),
			Headers: []string{"gamma", "average", "prob-outperform", "paired-t"},
		}
		for _, pt := range r.ByGamma[p] {
			tb.AddRow(pt.X, pt.Rates["average"], pt.Rates["prob-outperform"], pt.Rates["paired-t"])
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CheckShape verifies the Appendix I qualitative findings: the statistical
// tests (PAB, paired-t) control the null at every sample size — the
// threshold-based average comparison does NOT at small N, which is exactly
// the paper's argument against it — and at P=0.8 the PAB detection rate
// grows with N.
func (r FigI6Result) CheckShape() []string {
	var issues []string
	for _, pt := range r.BySampleSize[0.5] {
		for _, name := range []string{"prob-outperform", "paired-t"} {
			if rate := pt.Rates[name]; rate > 0.15 {
				issues = append(issues, fmt.Sprintf(
					"null not controlled: %s at N=%.0f has rate %.3f", name, pt.X, rate))
			}
		}
	}
	pts := r.BySampleSize[0.8]
	if len(pts) >= 2 {
		first := pts[0].Rates["prob-outperform"]
		last := pts[len(pts)-1].Rates["prob-outperform"]
		if last+0.05 < first {
			issues = append(issues, fmt.Sprintf(
				"PAB power decreased with N at P=0.8: %.3f → %.3f", first, last))
		}
	}
	return issues
}
