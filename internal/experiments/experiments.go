// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the experiment at a configurable
// budget (the full paper-scale protocol or a quick reduced version), returns
// a typed result, and renders it as text tables/plots. The cmd/varbench CLI
// and the root-level benchmark harness are thin wrappers around this
// package; `varbench` without arguments lists the experiments.
package experiments

import (
	"varbench/internal/casestudy"
)

// Budget scales an experiment between the quick smoke-test protocol and the
// paper-scale protocol.
type Budget struct {
	// SeedsPerSource is the number of seeds per source of variation
	// (paper: 200).
	SeedsPerSource int
	// HOptRepetitions is the number of independent HOpt runs per optimizer
	// (paper: 20).
	HOptRepetitions int
	// HOptBudget is the trial budget per HOpt run (paper: 200).
	HOptBudget int
	// KMax is the largest estimator sample count (paper: 100).
	KMax int
	// EstimatorRepetitions is the number of biased-estimator realizations
	// (paper: 20).
	EstimatorRepetitions int
	// SimulationsPerPoint is the simulation count per grid point for the
	// detection-rate studies.
	SimulationsPerPoint int
}

// Quick is a reduced protocol that finishes in minutes on a laptop while
// preserving every qualitative conclusion.
func Quick() Budget {
	return Budget{
		SeedsPerSource:       15,
		HOptRepetitions:      4,
		HOptBudget:           10,
		KMax:                 10,
		EstimatorRepetitions: 4,
		SimulationsPerPoint:  150,
	}
}

// Full is the paper-scale protocol (hours of CPU time).
func Full() Budget {
	return Budget{
		SeedsPerSource:       200,
		HOptRepetitions:      20,
		HOptBudget:           200,
		KMax:                 100,
		EstimatorRepetitions: 20,
		SimulationsPerPoint:  1000,
	}
}

// StructSeed fixes the synthetic data distributions across all experiments
// so results are comparable between figures.
const StructSeed uint64 = 20210301

// Studies returns the case studies filtered by names (nil/empty = all five).
func Studies(names []string) ([]*casestudy.Study, error) {
	if len(names) == 0 {
		return casestudy.All(StructSeed), nil
	}
	out := make([]*casestudy.Study, 0, len(names))
	for _, n := range names {
		s, err := casestudy.ByName(n, StructSeed)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
