package stats

// The multiple-comparison adjustment for benchmarks with many contestants
// (Section 6): when m comparisons are judged at once, the per-comparison
// threshold must be tightened to control the family-wise error rate.

// GammaMax is the saturation ceiling of GammaBonferroni: the largest
// adjusted meaningfulness threshold it returns. It sits strictly below 1
// because γ = 1 is a degenerate threshold — a bootstrap CI upper bound can
// never exceed 1, so no comparison could ever be judged meaningful, and
// Noether's sample-size relation loses its meaning (its N stays finite, 8,
// at GammaMax). An adjusted γ at GammaMax still
// signals that the correction has saturated: P(A>B) must be essentially 1
// to clear it.
const GammaMax = 1 - 1e-9

// GammaBonferroni raises the meaningfulness threshold γ of the
// probability-of-outperforming test for m simultaneous comparisons, the
// adjustment suggested in Section 6 for competitions with many contestants.
// It tightens the per-comparison significance level α → α/m and converts the
// tightened z threshold back to a γ threshold through Noether's relation.
// The result saturates at GammaMax (strictly below 1) for large m, keeping
// the three-zone decision rule well defined; callers comparing against
// GammaMax can detect saturation explicitly.
func GammaBonferroni(gamma, alpha float64, m int) float64 {
	if m <= 1 {
		return gamma
	}
	// In Noether's sample-size relation the detectable effect scales with
	// Φ⁻¹(1-α); keep N fixed and solve for the γ' that the tightened α
	// demands: (½-γ')/(½-γ) = Φ⁻¹(1-α/m)/Φ⁻¹(1-α).
	scale := NormQuantile(1-alpha/float64(m)) / NormQuantile(1-alpha)
	g := 0.5 + (gamma-0.5)*scale
	if g > GammaMax {
		g = GammaMax
	}
	return g
}
