package stats

import "math"

// LinearFit is the result of a least-squares fit y ≈ Slope·x.
type LinearFit struct {
	Slope, R2 float64
}

// RegressionThroughOrigin fits y = b·x by least squares with no intercept.
// The paper sets its average-comparison threshold δ = 1.9952·σ by regressing
// typical published improvements on the benchmark standard deviation; the
// through-origin form is the natural model for "improvement proportional to
// task noise scale".
func RegressionThroughOrigin(x, y []float64) LinearFit {
	if len(x) != len(y) || len(x) == 0 {
		return LinearFit{Slope: math.NaN(), R2: math.NaN()}
	}
	var sxy, sxx, syy float64
	for i := range x {
		sxy += x[i] * y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
	}
	if sxx == 0 {
		return LinearFit{Slope: math.NaN(), R2: math.NaN()}
	}
	b := sxy / sxx
	// R² for through-origin regression: 1 - SSR/Σy².
	ssr := 0.0
	for i := range x {
		e := y[i] - b*x[i]
		ssr += e * e
	}
	var r2 float64
	if syy > 0 {
		r2 = 1 - ssr/syy
	}
	return LinearFit{Slope: b, R2: r2}
}
