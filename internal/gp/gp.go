// Package gp implements Gaussian-process regression with an RBF kernel,
// Cholesky-based posterior inference and marginal-likelihood model selection.
// It is the substrate of the Bayesian hyperparameter optimizer (the paper
// used RoBO, Appendix A; this is the same algorithm family built from
// scratch).
package gp

import (
	"errors"
	"fmt"
	"math"

	"varbench/internal/tensor"
)

// RBF is the squared-exponential kernel
// k(a,b) = Variance · exp(-‖a-b‖² / (2·LengthScale²)).
type RBF struct {
	LengthScale float64
	Variance    float64
}

// Eval computes the kernel between two points.
func (k RBF) Eval(a, b []float64) float64 {
	d2 := 0.0
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return k.Variance * math.Exp(-d2/(2*k.LengthScale*k.LengthScale))
}

// GP is a fitted Gaussian-process posterior.
type GP struct {
	Kernel RBF
	Noise  float64 // observation noise variance

	x     *tensor.Matrix
	meanY float64
	alpha []float64      // (K+σ²I)⁻¹ (y - meanY)
	chol  *tensor.Matrix // Cholesky factor of K+σ²I
	lml   float64
}

// Fit conditions a GP prior on observations (x, y). The target mean is
// subtracted (constant-mean GP). Noise must be positive.
func Fit(x *tensor.Matrix, y []float64, kernel RBF, noise float64) (*GP, error) {
	n := x.Rows
	if n == 0 || len(y) != n {
		return nil, fmt.Errorf("gp: bad shapes n=%d len(y)=%d", n, len(y))
	}
	if noise <= 0 {
		return nil, errors.New("gp: noise must be positive")
	}
	k := tensor.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel.Eval(x.Row(i), x.Row(j))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Set(i, i, k.At(i, i)+noise)
	}
	chol, err := tensor.Cholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: kernel matrix not PD: %w", err)
	}
	meanY := tensor.Mean(y)
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - meanY
	}
	alpha := tensor.CholeskySolve(chol, centered)
	// Log marginal likelihood: -½ yᵀα − Σ log L_ii − n/2 log 2π.
	lml := -0.5*tensor.Dot(centered, alpha) -
		0.5*tensor.LogDetFromCholesky(chol) -
		float64(n)/2*math.Log(2*math.Pi)
	return &GP{
		Kernel: kernel, Noise: noise,
		x: x.Clone(), meanY: meanY, alpha: alpha, chol: chol, lml: lml,
	}, nil
}

// Predict returns the posterior mean and variance at query point q.
func (g *GP) Predict(q []float64) (mean, variance float64) {
	n := g.x.Rows
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.Kernel.Eval(g.x.Row(i), q)
	}
	mean = g.meanY + tensor.Dot(ks, g.alpha)
	v := tensor.SolveLower(g.chol, ks)
	variance = g.Kernel.Eval(q, q) - tensor.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// FitMLE fits GPs over a small grid of length-scales and noise levels and
// returns the one with the highest marginal likelihood — the simple, robust
// hyperparameter selection used inside the Bayesian optimizer.
func FitMLE(x *tensor.Matrix, y []float64, lengthScales, noises []float64) (*GP, error) {
	variance := varOf(y)
	if variance <= 0 {
		variance = 1e-4
	}
	var best *GP
	for _, ls := range lengthScales {
		for _, ns := range noises {
			g, err := Fit(x, y, RBF{LengthScale: ls, Variance: variance}, ns*variance)
			if err != nil {
				continue
			}
			if best == nil || g.lml > best.lml {
				best = g
			}
		}
	}
	if best == nil {
		return nil, errors.New("gp: no hyperparameter setting produced a valid fit")
	}
	return best, nil
}

func varOf(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	m := tensor.Mean(y)
	s := 0.0
	for _, v := range y {
		s += (v - m) * (v - m)
	}
	return s / float64(len(y)-1)
}

// ExpectedImprovement returns EI at query q for minimization given the best
// observed value fBest: EI = (fBest-μ)Φ(z) + σφ(z), z = (fBest-μ)/σ.
func (g *GP) ExpectedImprovement(q []float64, fBest float64) float64 {
	mu, v := g.Predict(q)
	sigma := math.Sqrt(v)
	if sigma < 1e-12 {
		if imp := fBest - mu; imp > 0 {
			return imp
		}
		return 0
	}
	z := (fBest - mu) / sigma
	phi := math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
	capPhi := 0.5 * math.Erfc(-z/math.Sqrt2)
	return (fBest-mu)*capPhi + sigma*phi
}
