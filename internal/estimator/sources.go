// Package estimator implements the paper's core contribution: measurement of
// the individual sources of variation in a benchmark (Section 2.2, Figure 1),
// the ideal estimator that re-runs hyperparameter optimization for every
// performance measure (Algorithm 1), the cheap biased estimator that fixes
// hyperparameters once (Algorithm 2) with its randomization subsets, the
// standard-error-vs-k curves of Figures 5/H.4 and the bias/variance/ρ/MSE
// decomposition of Figure H.5.
package estimator

import (
	"fmt"

	"varbench/internal/hpo"
	"varbench/internal/nn"
	"varbench/internal/pipeline"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// NumericalNoise is the pseudo-source label for runs where every seed is
// fixed and only nondeterministic gradient reduction varies (Figure 1's
// "Numerical noise" row, Appendix A).
const NumericalNoise = xrand.VarNumericalNoise

// SourceMeasures returns n test-performance measures obtained by varying
// only the source v (fresh seed per run) while holding every other source
// fixed to the base seed — the experimental protocol of Section 2.2:
// "iteratively for each source of variance, we randomized the seeds 200
// times, while keeping all other sources fixed to initial values".
//
// For v == NumericalNoise all seeds stay fixed and the training runs with
// nondeterministic data-parallel gradient reduction instead.
func SourceMeasures(t pipeline.Task, p hpo.Params, v xrand.Var, n int, baseSeed uint64) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("estimator: need at least 2 measures, got %d", n)
	}
	task := t
	if v == NumericalNoise {
		task = WithReducer(t, tensor.ReduceNondeterministic, 4)
	}
	seeder := xrand.New(baseSeed ^ 0x9E3779B97F4A7C15)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		streams := xrand.NewStreams(baseSeed)
		if v != NumericalNoise {
			streams.Reseed(v, seeder.Uint64())
		}
		perf, err := pipeline.RunWithParams(task, p, streams)
		if err != nil {
			return nil, err
		}
		out = append(out, perf)
	}
	return out, nil
}

// AllSourcesMeasures returns n measures with every ξO source randomized
// jointly (a fresh root seed per run) under fixed hyperparameters — the
// "Altogether" row of Figure G.3.
func AllSourcesMeasures(t pipeline.Task, p hpo.Params, n int, baseSeed uint64) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("estimator: need at least 2 measures, got %d", n)
	}
	seeder := xrand.New(baseSeed ^ 0xA17067E7)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		perf, err := pipeline.RunWithParams(t, p, xrand.NewStreams(seeder.Uint64()))
		if err != nil {
			return nil, err
		}
		out = append(out, perf)
	}
	return out, nil
}

// HOptMeasures returns n test-performance measures obtained by re-running
// the hyperparameter optimization with n different ξH seeds while all ξO
// stay fixed: the final model for each run is trained with the base ξO using
// that run's optimized hyperparameters. This isolates the ξH variance rows
// of Figure 1 (Random Search, Noisy Grid Search, Bayes Opt).
func HOptMeasures(t pipeline.Task, opt hpo.Optimizer, budget, n int, baseSeed uint64) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("estimator: need at least 2 measures, got %d", n)
	}
	base := xrand.NewStreams(baseSeed)
	split, err := t.Split(base.Get(xrand.VarDataSplit))
	if err != nil {
		return nil, err
	}
	seeder := xrand.New(baseSeed ^ 0xA5A5A5A5A5A5A5A5)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		streams := xrand.NewStreams(baseSeed)
		streams.Reseed(xrand.VarHOpt, seeder.Uint64())
		hres, err := pipeline.HOpt(t, opt, budget, split, streams)
		if err != nil {
			return nil, err
		}
		perf, err := pipeline.TrainEval(t, hres.Best, split.Train, split.Test, streams.Clone())
		if err != nil {
			return nil, err
		}
		out = append(out, perf)
	}
	return out, nil
}

// WithReducer wraps a task so that every built training configuration uses
// the given gradient reducer — the hook for numerical-noise experiments.
func WithReducer(t pipeline.Task, reducer tensor.Reducer, shards int) pipeline.Task {
	return &reducerTask{Task: t, reducer: reducer, shards: shards}
}

type reducerTask struct {
	pipeline.Task
	reducer tensor.Reducer
	shards  int
}

func (rt *reducerTask) Build(p hpo.Params) (nn.TrainConfig, error) {
	c, err := rt.Task.Build(p)
	if err != nil {
		return c, err
	}
	c.Reducer = rt.reducer
	c.Shards = rt.shards
	return c, nil
}
