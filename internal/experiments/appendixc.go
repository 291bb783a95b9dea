package experiments

import (
	"fmt"
	"io"

	"varbench/internal/casestudy"
	"varbench/internal/compare"
	"varbench/internal/data"
	"varbench/internal/hpo"
	"varbench/internal/pipeline"
	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// AppendixCResult is the worked example of the paper's Appendix C: the
// complete recommended statistical protocol applied to two concrete
// algorithms on one case study.
type AppendixCResult struct {
	Task         string
	Gamma        float64
	SampleSize   int
	ScoresA      []float64
	ScoresB      []float64
	Result       compare.Result
	ShapiroPValA float64
	ShapiroPValB float64
}

// AppendixC runs the protocol end to end on the tiny study: algorithm A is
// the tuned default configuration, algorithm B trains with a deliberately
// small learning rate. Steps C.1 (randomize all ξO sources), C.2 (pair via
// shared seeds), C.3 (Noether sample size), C.4–C.5 (P(A>B) with percentile
// bootstrap), C.6 (three-zone decision).
func AppendixC(gamma float64, seed uint64) (AppendixCResult, error) {
	task := casestudy.Tiny(seed)
	paramsA := task.Defaults()
	paramsB := task.Defaults()
	paramsB["lr"] = paramsB["lr"] / 12

	n := stats.NoetherSampleSize(gamma, 0.05, 0.05)
	res := AppendixCResult{Task: task.Name(), Gamma: gamma, SampleSize: n}

	measure := func(p hpo.Params, runSeed uint64) (float64, error) {
		streams := xrand.NewStreams(runSeed)
		split, err := task.Split(streams.Get(xrand.VarDataSplit))
		if err != nil {
			return 0, err
		}
		stv, err := data.Concat(split.Train, split.Valid)
		if err != nil {
			return 0, err
		}
		return pipeline.TrainEval(task, p, stv, split.Test, streams)
	}

	seeder := xrand.New(seed ^ 0xAC)
	for i := 0; i < n; i++ {
		runSeed := seeder.Uint64() // shared: pairs the two algorithms
		a, err := measure(paramsA, runSeed)
		if err != nil {
			return AppendixCResult{}, err
		}
		b, err := measure(paramsB, runSeed)
		if err != nil {
			return AppendixCResult{}, err
		}
		res.ScoresA = append(res.ScoresA, a)
		res.ScoresB = append(res.ScoresB, b)
	}

	if _, p, err := stats.ShapiroWilk(res.ScoresA); err == nil {
		res.ShapiroPValA = p
	}
	if _, p, err := stats.ShapiroWilk(res.ScoresB); err == nil {
		res.ShapiroPValB = p
	}

	pairs, err := compare.Pairs(res.ScoresA, res.ScoresB)
	if err != nil {
		return AppendixCResult{}, err
	}
	out, err := compare.PAB{Gamma: gamma}.Evaluate(pairs)
	if err != nil {
		return AppendixCResult{}, err
	}
	res.Result = out
	return res, nil
}

// Render narrates each protocol step.
func (r AppendixCResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Appendix C worked example — task %q, γ = %.2f\n\n", r.Task, r.Gamma)
	fmt.Fprintf(w, "C.1  Randomized sources: data split, init, order, dropout, augment\n")
	fmt.Fprintf(w, "     (every run derives all ξO streams from a fresh seed).\n")
	fmt.Fprintf(w, "C.2  Pairing: both algorithms consume the SAME seed per run,\n")
	fmt.Fprintf(w, "     so shared variation cancels in the comparison.\n")
	fmt.Fprintf(w, "C.3  Sample size (Noether, α=β=0.05): N = %d\n", r.SampleSize)
	fmt.Fprintf(w, "     Collected %d paired measurements.\n", len(r.ScoresA))
	fmt.Fprintf(w, "     mean A = %.4f (SW normality p=%.2f), mean B = %.4f (p=%.2f)\n",
		stats.Mean(r.ScoresA), r.ShapiroPValA, stats.Mean(r.ScoresB), r.ShapiroPValB)
	fmt.Fprintf(w, "C.4  P(A>B) = %.3f\n", r.Result.PAB)
	fmt.Fprintf(w, "C.5  Percentile-bootstrap CI (exact, K → ∞): [%.3f, %.3f]\n", r.Result.CI.Lo, r.Result.CI.Hi)
	fmt.Fprintf(w, "C.6  Decision: CI.Lo %.3f vs 0.5 (significance), CI.Hi %.3f vs γ=%.2f (meaningfulness)\n",
		r.Result.CI.Lo, r.Result.CI.Hi, r.Gamma)
	fmt.Fprintf(w, "     → %s\n", r.Result.Decision)
	return nil
}
