package stats

import "math"

// Binomial is the distribution of successes in N trials with probability P.
// The paper uses it to model test-set sampling noise of an accuracy measure
// (Figure 2): a pipeline with error rate τ measured on n′ examples follows
// Binomial(n′, τ) when errors are i.i.d.
type Binomial struct {
	N int
	P float64
}

// PMF returns P(X = k).
func (b Binomial) PMF(k int) float64 {
	if k < 0 || k > b.N {
		return 0
	}
	if b.P == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if b.P == 1 {
		if k == b.N {
			return 1
		}
		return 0
	}
	return math.Exp(LogChoose(b.N, k) +
		float64(k)*math.Log(b.P) + float64(b.N-k)*math.Log(1-b.P))
}

// AccuracyStd returns the standard deviation of the *proportion* of correct
// answers measured on N samples: sqrt(P(1-P)/N). This is the dotted-line
// model of Figure 2.
func (b Binomial) AccuracyStd() float64 {
	return math.Sqrt(b.P * (1 - b.P) / float64(b.N))
}

// StudentT is Student's t distribution with Nu degrees of freedom.
type StudentT struct {
	Nu float64
}

// CDF returns P(T ≤ t).
func (s StudentT) CDF(t float64) float64 {
	if s.Nu <= 0 {
		return math.NaN()
	}
	x := s.Nu / (s.Nu + t*t)
	p := 0.5 * RegIncBeta(s.Nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// ChiSquared is the chi-squared distribution with K degrees of freedom.
type ChiSquared struct {
	K float64
}

// CDF returns P(X ≤ x).
func (c ChiSquared) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegIncGammaLower(c.K/2, x/2)
}
