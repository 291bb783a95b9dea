package varbench

import (
	"context"
	"fmt"
	"math"
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// TestDefaultProtocolCalibration checks the error rates of the default
// Experiment (γ 0.75, MaxRuns from Noether's N) on
// synthetic paired pipelines whose true P(A>B) is known exactly: A−B is
// N(μ, 2) with μ = √2·Φ⁻¹(p), so P(A>B) = p. Over 1,000 seeds per cell the
// final 95% CI must cover p in at least 90% of runs, at most 4.5% of null
// runs (p = 0.5) may be judged significant, and every run must use exactly
// the fixed N the default stopping rule promises: 29 pairs for one dataset,
// and for two datasets 21 each (Noether's N at the Bonferroni-adjusted γ).
// The bounds sit a few binomial standard errors below the rates the
// fixed-N protocol reaches; re-reading the CI every few pairs, as an early
// stop on the CI does, covers far less at p ≥ 0.75.
func TestDefaultProtocolCalibration(t *testing.T) {
	const seeds = 1000
	cells := []struct {
		p         float64
		datasets  int
		wantPairs int
	}{
		{0.5, 1, 29},
		{0.75, 1, 29},
		{0.9, 1, 29},
		{0.75, 2, 21},
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("p=%v/datasets=%d", c.p, c.datasets), func(t *testing.T) {
			mu := math.Sqrt2 * stats.NormQuantile(c.p)
			e := Experiment{
				ATrial: func(tr Trial) (float64, error) {
					return mu + xrand.New(tr.Seed).Split("a").NormFloat64(), nil
				},
				BTrial: func(tr Trial) (float64, error) {
					return xrand.New(tr.Seed).Split("b").NormFloat64(), nil
				},
				Parallelism: 1,
			}
			if c.datasets == 2 {
				e.Datasets = []Dataset{{Name: "d1"}, {Name: "d2"}}
			}
			var judged, offN, covered, significant, clearedGamma int
			for seed := uint64(1); seed <= seeds; seed++ {
				e.Seed = seed
				res, err := e.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range res.Datasets {
					if d.Pairs != c.wantPairs {
						offN++
					}
					cmp := d.Comparison
					judged++
					if cmp.CILo <= c.p && c.p <= cmp.CIHi {
						covered++
					}
					if cmp.Conclusion != NotSignificant {
						significant++
					}
					if cmp.CILo > cmp.Gamma {
						clearedGamma++
					}
				}
			}
			rate := func(k int) float64 { return float64(k) / float64(judged) }
			if offN > 0 {
				t.Errorf("%d of %d runs did not use exactly %d pairs", offN, judged, c.wantPairs)
			}
			if got := rate(covered); got < 0.90 {
				t.Errorf("CI covered P(A>B) = %v in %.4f of %d runs, want ≥ 0.90", c.p, got, judged)
			}
			if c.p == 0.5 {
				if got := rate(significant); got > 0.045 {
					t.Errorf("%.4f of %d null runs judged significant, want ≤ 0.045", got, judged)
				}
			}
			if c.p == DefaultGamma && c.datasets == 1 {
				t.Logf("CI.Lo > γ in %.4f of %d runs at the γ boundary", rate(clearedGamma), judged)
			}
			t.Logf("coverage %.4f, significant %.4f over %d runs", rate(covered), rate(significant), judged)
		})
	}
}
