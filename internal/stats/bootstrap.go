package stats

import "math"

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	Level  float64 // confidence level, e.g. 0.95
}

// Pair is one paired performance measurement of two algorithms on the same
// seeds/splits (Appendix C.2).
type Pair struct {
	A, B float64
}

// NoetherSampleSize returns the minimal number of paired measurements needed
// for the Mann-Whitney-based test of P(A>B) > 0.5 against the alternative
// P(A>B) = gamma, with false-positive rate alpha and false-negative rate
// beta (Noether 1987, used in Appendix C.3 / Figure C.1):
//
//	N ≥ ( (Φ⁻¹(1−α) − Φ⁻¹(β)) / (√6·(½−γ)) )².
//
// With the paper's recommended α = β = 0.05, γ = 0.75 this gives N = 29.
func NoetherSampleSize(gamma, alpha, beta float64) int {
	if gamma == 0.5 {
		return math.MaxInt32
	}
	num := NormQuantile(1-alpha) - NormQuantile(beta)
	den := math.Sqrt(6) * (0.5 - gamma)
	n := (num / den) * (num / den)
	return int(math.Ceil(n))
}
