package hpo

import (
	"fmt"
	"math"

	"varbench/internal/gp"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// RandomSearch samples the space uniformly (log-uniformly on log dims).
// Its search range is widened by ±Δ/2 per dimension to match the coverage of
// NoisyGrid (Appendix E.3), keeping the two algorithms comparable.
type RandomSearch struct {
	// PointsPerDim is the grid resolution used only to compute the Δ
	// widening; 0 disables widening.
	PointsPerDim int
}

// Name implements Optimizer.
func (RandomSearch) Name() string { return "random-search" }

// Optimize implements Optimizer.
func (rs RandomSearch) Optimize(obj Objective, space Space, budget int, r *xrand.Source) (History, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	widened := widen(space, rs.PointsPerDim)
	h := make(History, 0, budget)
	for i := 0; i < budget; i++ {
		p := space.Clip(widened.SampleUniform(r))
		h = append(h, Trial{Params: p, Value: obj(p)})
	}
	return h, nil
}

// widen expands each dimension by ±Δ/2 where Δ is the grid interval for
// pointsPerDim points (in log space for log dims).
func widen(space Space, pointsPerDim int) Space {
	if pointsPerDim < 2 {
		return space
	}
	out := make(Space, len(space))
	for i, d := range space {
		lo, hi := d.Lo, d.Hi
		if d.Log {
			lo, hi = math.Log(lo), math.Log(hi)
		}
		delta := (hi - lo) / float64(pointsPerDim-1)
		lo -= delta / 2
		hi += delta / 2
		if d.Log {
			lo, hi = math.Exp(lo), math.Exp(hi)
		}
		out[i] = Dim{Name: d.Name, Lo: lo, Hi: hi, Log: d.Log}
	}
	return out
}

// NoisyGrid perturbs the anchor points of a full factorial grid: ãᵢ ~
// U(aᵢ±Δᵢ/2), b̃ᵢ ~ U(bᵢ±Δᵢ/2) (Appendix E.2). The number of points per
// dimension is the largest n with n^d ≤ budget (at least 2). In
// expectation it covers the unperturbed grid, but each seed realizes a
// slightly different grid — modelling
// the arbitrary human choice of grid ranges that the paper identifies as an
// uncontrolled ξH source.
type NoisyGrid struct{}

// Name implements Optimizer.
func (NoisyGrid) Name() string { return "noisy-grid-search" }

// Optimize implements Optimizer.
func (NoisyGrid) Optimize(obj Objective, space Space, budget int, r *xrand.Source) (History, error) {
	return gridOptimize(obj, space, budget, r)
}

func gridOptimize(obj Objective, space Space, budget int, noise *xrand.Source) (History, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("hpo: budget must be ≥ 1")
	}
	d := len(space)
	n := pointsPerDim(budget, d)

	// Anchors in (possibly log-transformed) coordinates.
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i, dim := range space {
		lo[i], hi[i] = dim.Lo, dim.Hi
		if dim.Log {
			lo[i], hi[i] = math.Log(lo[i]), math.Log(hi[i])
		}
		switch {
		case n == 1:
			// Degenerate budget (< 2^d): a single grid point at the centre.
			// The noisy variant perturbs it within the full span — with one
			// point, the "arbitrary grid placement" is the point itself.
			mid := (lo[i] + hi[i]) / 2
			if noise != nil {
				mid = noise.Uniform(lo[i], hi[i])
			}
			lo[i], hi[i] = mid, mid
		case noise != nil:
			delta := (hi[i] - lo[i]) / float64(n-1)
			lo[i] = noise.Uniform(lo[i]-delta/2, lo[i]+delta/2)
			hi[i] = noise.Uniform(hi[i]-delta/2, hi[i]+delta/2)
		}
	}

	counters := make([]int, d)
	h := make(History, 0, intPow(n, d))
	for {
		p := make(Params, d)
		for i, dim := range space {
			v := lo[i]
			if n > 1 {
				v += (hi[i] - lo[i]) * float64(counters[i]) / float64(n-1)
			}
			if dim.Log {
				v = math.Exp(v)
			}
			p[dim.Name] = v
		}
		p = space.Clip(p)
		h = append(h, Trial{Params: p, Value: obj(p)})
		// Odometer increment.
		i := 0
		for ; i < d; i++ {
			counters[i]++
			if counters[i] < n {
				break
			}
			counters[i] = 0
		}
		if i == d {
			break
		}
	}
	return h, nil
}

func pointsPerDim(budget, d int) int {
	n := 2
	for intPow(n+1, d) <= budget {
		n++
	}
	if intPow(n, d) > budget {
		n = 1 // degenerate tiny budgets: single point per dim
	}
	return n
}

func intPow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		if out > 1<<40 {
			return out
		}
		out *= base
	}
	return out
}

// BayesOpt is Gaussian-process-based Bayesian optimization with expected
// improvement, mirroring the RoBO optimizer of the paper's experiments:
// InitRandom random evaluations, then GP fit + EI maximization over random
// candidates each iteration.
type BayesOpt struct {
	InitRandom int // random warm-up trials (default 5)
	Candidates int // EI candidate pool per iteration (default 256)
}

// Name implements Optimizer.
func (BayesOpt) Name() string { return "bayes-opt" }

// Optimize implements Optimizer.
func (b BayesOpt) Optimize(obj Objective, space Space, budget int, r *xrand.Source) (History, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	init := b.InitRandom
	if init <= 0 {
		init = 5
	}
	if init > budget {
		init = budget
	}
	cands := b.Candidates
	if cands <= 0 {
		cands = 256
	}

	h := make(History, 0, budget)
	for i := 0; i < init; i++ {
		p := space.SampleUniform(r)
		h = append(h, Trial{Params: p, Value: obj(p)})
	}

	lengthScales := []float64{0.05, 0.15, 0.3, 0.6, 1.2}
	noises := []float64{1e-4, 1e-2, 1e-1}
	for len(h) < budget {
		x := tensor.NewMatrix(len(h), len(space))
		y := make([]float64, len(h))
		for i, t := range h {
			copy(x.Row(i), space.ToUnit(t.Params))
			y[i] = t.Value
		}
		surrogate, err := gp.FitMLE(x, y, lengthScales, noises)

		var next Params
		if err != nil {
			// Degenerate surrogate (e.g. constant objective): fall back to
			// random sampling rather than aborting the search.
			next = space.SampleUniform(r)
		} else {
			best, _ := History(h).Best()
			bestEI := math.Inf(-1)
			for c := 0; c < cands; c++ {
				u := make([]float64, len(space))
				for j := range u {
					u[j] = r.Float64()
				}
				if ei := surrogate.ExpectedImprovement(u, best.Value); ei > bestEI {
					bestEI = ei
					next = space.FromUnit(u)
				}
			}
		}
		h = append(h, Trial{Params: next, Value: obj(next)})
	}
	return h, nil
}
