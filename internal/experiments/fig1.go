package experiments

import (
	"fmt"
	"io"

	"varbench/internal/casestudy"
	"varbench/internal/estimator"
	"varbench/internal/hpo"
	"varbench/internal/report"
	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// Fig1Result holds, per task, the standard deviation of test performance
// attributable to each source of variation — Figure 1 of the paper.
type Fig1Result struct {
	Tasks []Fig1Task
}

// Fig1Task is one column of Figure 1.
type Fig1Task struct {
	Task string
	// Rows maps source label → measures; includes ξO sources and the three
	// hyperparameter optimizers.
	Rows map[string][]float64
	// Order lists row labels in display order.
	Order []string
}

// BootstrapStd returns the data-sampling standard deviation, the reference
// every other source is normalized by in Figure 1.
func (t Fig1Task) BootstrapStd() float64 {
	return stats.Std(t.Rows[string(xrand.VarDataSplit)])
}

// hoptOptimizers returns the three ξH rows of Figure 1.
func hoptOptimizers() []hpo.Optimizer {
	return []hpo.Optimizer{
		hpo.NoisyGrid{},
		hpo.RandomSearch{},
		hpo.BayesOpt{InitRandom: 4, Candidates: 128},
	}
}

// Fig1 measures the variance contributed by every applicable source of
// variation on each study (Section 2.2's protocol: per source, vary that
// seed only; for ξH, rerun the whole hyperparameter optimization).
func Fig1(studies []*casestudy.Study, b Budget, baseSeed uint64) (Fig1Result, error) {
	res := Fig1Result{}
	for _, s := range studies {
		taskRes := Fig1Task{Task: s.Name(), Rows: map[string][]float64{}}
		for _, v := range s.Sources() {
			m, err := estimator.SourceMeasures(s, s.Defaults(), v, b.SeedsPerSource, baseSeed)
			if err != nil {
				return Fig1Result{}, fmt.Errorf("fig1 %s/%s: %w", s.Name(), v, err)
			}
			taskRes.Rows[string(v)] = m
			taskRes.Order = append(taskRes.Order, string(v))
		}
		for _, opt := range hoptOptimizers() {
			m, err := estimator.HOptMeasures(s, opt, b.HOptBudget, b.HOptRepetitions, baseSeed)
			if err != nil {
				return Fig1Result{}, fmt.Errorf("fig1 %s/%s: %w", s.Name(), opt.Name(), err)
			}
			taskRes.Rows[opt.Name()] = m
			taskRes.Order = append(taskRes.Order, opt.Name())
		}
		res.Tasks = append(res.Tasks, taskRes)
	}
	return res, nil
}

// Render writes the Figure 1 table: per task and source, the absolute std
// and the std relative to the bootstrap (data) variance.
func (r Fig1Result) Render(w io.Writer) error {
	tb := &report.Table{
		Title:   "Figure 1 — sources of variation (std of test performance)",
		Headers: []string{"task", "source", "std", "rel. to bootstrap", "mean perf"},
	}
	for _, task := range r.Tasks {
		ref := task.BootstrapStd()
		for _, src := range task.Order {
			m := task.Rows[src]
			sd := stats.Std(m)
			rel := 0.0
			if ref > 0 {
				rel = sd / ref
			}
			tb.AddRow(task.Task, src, sd, rel, stats.Mean(m))
		}
	}
	return tb.Render(w)
}

// CheckShape verifies one of the paper's qualitative conclusions on this
// run: data sampling is the largest ξO source on every task, within a slack
// of 1.5x (no other ξO source's std, numerical noise included, exceeds the
// bootstrap's by more). Returns a list of violated expectations (empty =
// consistent).
func (r Fig1Result) CheckShape() []string {
	var issues []string
	for _, task := range r.Tasks {
		ref := task.BootstrapStd()
		for _, src := range task.Order {
			if src == string(xrand.VarDataSplit) {
				continue
			}
			sd := stats.Std(task.Rows[src])
			if isXiO(src) && sd > ref*1.5 {
				issues = append(issues, fmt.Sprintf(
					"%s: source %s std %.4g exceeds bootstrap %.4g by >1.5x",
					task.Task, src, sd, ref))
			}
		}
	}
	return issues
}

func isXiO(src string) bool {
	for _, v := range xrand.LearningVars() {
		if src == string(v) {
			return true
		}
	}
	return src == string(xrand.VarNumericalNoise)
}
