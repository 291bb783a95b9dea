// Command varbench regenerates the tables and figures of "Accounting for
// Variance in Machine Learning Benchmarks" (MLSys 2021) on the synthetic
// case studies of this repository, and applies the paper's recommended
// statistical protocol to externally collected score files.
//
// Usage:
//
//	varbench <experiment> [flags]
//	varbench compare -a scoresA.csv -b scoresB.csv [flags]
//	varbench variance [-task name] [-sources spec] [flags]
//	varbench watch -file scores.csv [-follow] [flags]
//	varbench store dump DIR
//
// Experiments: fig1 fig2 fig3 fig5 figH5 fig6 figC1 figF2 figG3 figI6
// table8 appendixC spaces env all (figH4 is accepted as an alias of fig5,
// which renders the same decomposition).
//
// Experiment flags:
//
//	-quick        reduced budget (minutes instead of hours)
//	-tasks list   comma-separated case-study names (default: all five)
//	-seed n       base seed for all experiments (default 1)
//
// The compare subcommand reads CSV score files — one score per line, or
// dataset,score rows for a multi-dataset comparison — and emits the
// three-zone conclusion (not significant / significant but not meaningful /
// significant and meaningful) as text, JSON or CSV; see
// `varbench compare -h` for its flags.
//
// The variance subcommand runs a varbench.VarianceStudy on one case study:
// it decomposes the benchmark's variance across its sources of variation
// (per-source share, joint randomization, SE-vs-k curves, bias/Var/ρ/MSE)
// and renders the VarianceReport as text, JSON or CSV; see
// `varbench variance -h` for its flags.
//
// The watch subcommand streams a growing score file — `a,b` CSV or
// `{"a": .., "b": ..}` JSONL lines, one paired trial each — through the
// recommended test: each new line adds to the win/tie/loss counts, never a
// re-analysis of the history. With -follow it tails the file; see
// `varbench watch -h` for its flags.
//
// Paired reports (compare without -unpaired, and watch) compute the
// percentile bootstrap's exact interval, the limit of infinitely many
// resamples, from the win, tie and loss counts: they draw no randomness,
// so -bootstrap and -seed change nothing in them.
//
// The store dump subcommand prints every cell of a -store directory as one
// JSON line, sorted by (key, fingerprint), in the line format of the
// retired trials.jsonl log. A dump is a read-only view: nothing reads one
// back, and a -store run does not read a trials.jsonl either.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/estimator"
	"varbench/internal/experiments"
	"varbench/internal/stats"
	"varbench/internal/xrand"
	"varbench/store"
)

// errDegraded marks a run that completed — its report was rendered — but
// quarantined trials along the way, so the results are partial. main turns
// it into exit code 3, distinct from hard failures (1) and interrupts
// (130/143), so CI and supervisors can tell "usable but incomplete" from
// "broken".
var errDegraded = errors.New("run degraded by quarantined trials")

func main() {
	// Ctrl-C and SIGTERM cancel the collection context instead of killing
	// the process mid-write: the worker pool drains, in-flight trials
	// finish and land in the trial store (if -store is set), and the run
	// exits cleanly resumable — with the conventional 128+signum code
	// (130 for SIGINT, 143 for SIGTERM) so supervisors can tell an
	// operator interrupt from a termination. After the first signal the
	// handler unregisters, so a second signal kills immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	var caught atomic.Value // os.Signal
	//lint:allow goroline(signal.Notify relay parks on sigCh for the process lifetime by design; signal.Stop unregisters after the first delivery)
	go func() {
		if sig, ok := <-sigCh; ok {
			caught.Store(sig)
			signal.Stop(sigCh)
			cancel()
		}
	}()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if sig, _ := caught.Load().(os.Signal); sig != nil && errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "varbench: interrupted (%v) — completed trials were saved if -store was set; rerun the same command to resume\n", sig)
			if sig == syscall.SIGTERM {
				os.Exit(143)
			}
			os.Exit(130)
		}
		// Library errors already carry the package prefix; avoid printing
		// "varbench: varbench: ...".
		fmt.Fprintln(os.Stderr, "varbench:", strings.TrimPrefix(err.Error(), "varbench: "))
		if errors.Is(err, errDegraded) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// openStore opens a store DSN for a subcommand. With waitLock > 0 a store
// held by another live process (store.ErrLocked) is retried on the library's
// deterministic backoff until the lock frees or waitLock elapses, instead of
// failing immediately — the CLI face of the non-blocking flock both engines
// take.
func openStore(ctx context.Context, dsn string, waitLock time.Duration) (store.Backend, error) {
	if waitLock <= 0 {
		return store.OpenDSN(dsn)
	}
	ctx, cancel := context.WithTimeout(ctx, waitLock)
	defer cancel()
	policy := varbench.RetryPolicy{
		// Effectively unbounded attempts: the context deadline, not the
		// attempt budget, decides when to give up.
		MaxAttempts: math.MaxInt32,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Retryable:   func(err error) bool { return errors.Is(err, store.ErrLocked) },
	}
	var st store.Backend
	err := policy.Do(ctx, 0, func() error {
		var err error
		st, err = store.OpenDSN(dsn)
		return err
	})
	if err != nil {
		if errors.Is(err, store.ErrLocked) {
			return nil, fmt.Errorf("store %s: still locked after waiting %v: %w", dsn, waitLock, err)
		}
		return nil, err
	}
	return st, nil
}

// runStore implements `varbench store dump DIR`: every cell of the store
// in DIR as one legacy JSON line, sorted by (key, fingerprint). A directory
// with no seg-*.log segment is refused: it is not a store. The dump
// replays the segments read-only (store.Dump), so it works while a run
// holds the store, and it leaves every file as it was, a torn tail
// included.
func runStore(args []string, w io.Writer) error {
	if len(args) != 2 || args[0] != "dump" {
		return fmt.Errorf("usage: varbench store dump DIR")
	}
	dir := args[1]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store dump: %w", err)
	}
	if !slices.ContainsFunc(entries, func(e os.DirEntry) bool {
		return strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".log")
	}) {
		return fmt.Errorf("store dump: %s is not a store: it holds no seg-*.log segment", dir)
	}
	return store.Dump(dir, w)
}

func run(ctx context.Context, args []string, w io.Writer) error {
	// The compare and variance subcommands have their own flag sets and no
	// timing footer.
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(ctx, args[1:], w)
	}
	if len(args) > 0 && args[0] == "variance" {
		return runVariance(ctx, args[1:], w)
	}
	if len(args) > 0 && args[0] == "watch" {
		return runWatch(ctx, args[1:], w)
	}
	if len(args) > 0 && args[0] == "store" {
		return runStore(args[1:], w)
	}

	fs := flag.NewFlagSet("varbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced experiment budget")
	tasks := fs.String("tasks", "", "comma-separated case studies (default all)")
	seed := fs.Uint64("seed", 1, "base seed")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: varbench <experiment> [flags]")
		fmt.Fprintln(fs.Output(), "       varbench compare -a scoresA.csv -b scoresB.csv [flags]")
		fmt.Fprintln(fs.Output(), "       varbench variance [-task name] [-sources spec] [flags]")
		fmt.Fprintln(fs.Output(), "       varbench watch -file scores.csv [-follow] [flags]")
		fmt.Fprintln(fs.Output(), "       varbench store dump DIR")
		fmt.Fprintln(fs.Output(), "experiments: fig1 fig2 fig3 fig5 (alias figH4) figH5 fig6 figC1 figF2 figG3 figI6 table8 appendixC spaces env all")
		fs.PrintDefaults()
	}
	if len(args) == 0 {
		fs.Usage()
		return fmt.Errorf("missing experiment name")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	budget := experiments.Full()
	if *quick {
		budget = experiments.Quick()
	}
	var taskNames []string
	if *tasks != "" {
		taskNames = strings.Split(*tasks, ",")
	}
	studies, err := experiments.Studies(taskNames)
	if err != nil {
		return err
	}

	start := time.Now()
	defer func() {
		fmt.Fprintf(w, "\n[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}()

	switch name {
	case "fig1":
		return runFig1(w, studies, budget, *seed)
	case "fig2":
		return runFig2(w, studies, budget, *seed)
	case "fig3":
		return runFig3(w, studies, budget, *seed)
	case "fig5", "figH4":
		return runFig5(w, studies, budget, *seed, false)
	case "figH5":
		return runFig5(w, studies, budget, *seed, true)
	case "fig6":
		return runFig6(w, studies, budget, *seed)
	case "figC1":
		return experiments.FigC1(0.05, 0.05).Render(w)
	case "figF2":
		res, err := experiments.FigF2(studies, budget, *seed)
		if err != nil {
			return err
		}
		reportIssues(w, "figF2", res.CheckShape())
		return res.Render(w)
	case "figG3":
		res, err := experiments.FigG3(studies, budget, *seed)
		if err != nil {
			return err
		}
		if err := res.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := res.RenderHistograms(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "share of distributions consistent with normality: %.2f\n", res.NormalShare())
		return nil
	case "figI6":
		res, err := experiments.FigI6(experiments.DefaultModelStats(), budget, *seed)
		if err != nil {
			return err
		}
		reportIssues(w, "figI6", res.CheckShape())
		return res.Render(w)
	case "table8":
		res, err := experiments.Table8(*seed)
		if err != nil {
			return err
		}
		reportIssues(w, "table8", res.CheckShape())
		return res.Render(w)
	case "appendixC":
		res, err := experiments.AppendixC(0.75, *seed)
		if err != nil {
			return err
		}
		return res.Render(w)
	case "spaces":
		return experiments.RenderSpaces(w, studies)
	case "env":
		return experiments.RenderEnv(w)
	case "all":
		for _, sub := range []string{"env", "spaces", "fig1", "fig2", "fig3", "fig5",
			"figH5", "fig6", "figC1", "figF2", "figG3", "figI6", "table8", "appendixC"} {
			fmt.Fprintf(w, "\n===== %s =====\n", sub)
			rebuilt := append([]string{sub}, args[1:]...)
			if err := run(ctx, rebuilt, w); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
		}
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", name)
	}
}

func runFig1(w io.Writer, studies []*casestudy.Study, b experiments.Budget, seed uint64) error {
	res, err := experiments.Fig1(studies, b, seed)
	if err != nil {
		return err
	}
	reportIssues(w, "fig1", res.CheckShape())
	return res.Render(w)
}

func runFig2(w io.Writer, studies []*casestudy.Study, b experiments.Budget, seed uint64) error {
	// Figure 2 only concerns the classification tasks with accuracy
	// metrics; filter the segmentation and regression studies out.
	var cls []*casestudy.Study
	for _, s := range studies {
		switch s.Name() {
		case "pascalvoc-resnet", "mhc-mlp":
		default:
			cls = append(cls, s)
		}
	}
	res, err := experiments.Fig2(cls, b, seed)
	if err != nil {
		return err
	}
	return res.Render(w)
}

func runFig3(w io.Writer, studies []*casestudy.Study, b experiments.Budget, seed uint64) error {
	// Measure the data-split σ (in accuracy points) of the two tasks with
	// embedded SOTA timelines.
	sigmas := map[string]float64{}
	for _, want := range []struct{ study, timeline string }{
		{"cifar10-vgg11", "cifar10"},
		{"sst2-bert", "sst2"},
	} {
		s, err := casestudy.ByName(want.study, experiments.StructSeed)
		if err != nil {
			return err
		}
		m, err := estimator.SourceMeasures(s, s.Defaults(), xrand.VarDataSplit,
			b.SeedsPerSource, seed)
		if err != nil {
			return err
		}
		sigmas[want.timeline] = 100 * stats.Std(m)
		fmt.Fprintf(w, "measured σ(%s) = %.3f%% accuracy\n", want.study, sigmas[want.timeline])
	}
	res, err := experiments.Fig3(sigmas, 0.05)
	if err != nil {
		return err
	}
	return res.Render(w)
}

func runFig5(w io.Writer, studies []*casestudy.Study, b experiments.Budget, seed uint64, h5 bool) error {
	res, err := experiments.Fig5(studies, b, seed)
	if err != nil {
		return err
	}
	reportIssues(w, "fig5", res.CheckShape())
	if h5 {
		return res.RenderH5(w)
	}
	return res.Render(w)
}

func runFig6(w io.Writer, studies []*casestudy.Study, b experiments.Budget, seed uint64) error {
	// Derive the simulation models from a fig5-style measurement on the
	// first selected study, then run the detection-rate sweep.
	sub := studies[:1]
	fmt.Fprintf(w, "deriving simulation model from %s ...\n", sub[0].Name())
	f5, err := experiments.Fig5(sub, b, seed)
	if err != nil {
		return err
	}
	sigma2, biasVar, withinVar := f5.Tasks[0].SimulationModel()
	ms := experiments.ModelStats{
		Task: sub[0].Name(), Sigma2: sigma2, BiasVar: biasVar, WithinVar: withinVar,
	}
	fmt.Fprintf(w, "σ²=%.3g biasVar=%.3g withinVar=%.3g\n", sigma2, biasVar, withinVar)
	res, err := experiments.Fig6(ms, b, seed)
	if err != nil {
		return err
	}
	reportIssues(w, "fig6", res.CheckShape())
	return res.Render(w)
}

func reportIssues(w io.Writer, name string, issues []string) {
	for _, i := range issues {
		fmt.Fprintf(w, "[%s shape warning] %s\n", name, i)
	}
}
