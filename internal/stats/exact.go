package stats

// ClopperPearson returns the exact binomial confidence interval for a
// proportion with k successes in n trials, via the beta-quantile
// formulation. Useful as an exact alternative to the percentile bootstrap
// for tie-free P(A>B) estimates.
func ClopperPearson(k, n int, level float64) CI {
	alpha := 1 - level
	var lo, hi float64
	if k == 0 {
		lo = 0
	} else {
		lo = betaQuantile(alpha/2, float64(k), float64(n-k+1))
	}
	if k == n {
		hi = 1
	} else {
		hi = betaQuantile(1-alpha/2, float64(k+1), float64(n-k))
	}
	return CI{Lo: lo, Hi: hi, Level: level}
}

// betaQuantile inverts the regularized incomplete beta by bisection.
func betaQuantile(p, a, b float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if RegIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
