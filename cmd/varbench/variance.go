package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/estimator"
	"varbench/internal/experiments"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
)

// runVariance implements the `varbench variance` subcommand: a
// VarianceStudy over one case study's pipeline, decomposing the benchmark's
// variance across its sources of variation — the paper's Figure 1/Figure 5
// protocol served as a workload instead of a figure generator. The command
// probes each source with fixed default hyperparameters (the FixHOptEst
// regime, O(k+T) trainings); use the fig1/fig5 experiments for the full
// ideal-estimator studies.
func runVariance(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("varbench variance", flag.ContinueOnError)
	taskName := fs.String("task", "tiny", "case study: tiny, rte-bert, sst2-bert, mhc-mlp, pascalvoc-resnet or cifar10-vgg11")
	sources := fs.String("sources", "", "comma-separated ξO sources or sets (init, data, learning, weights-init, ...); default: the task's own ξO sources")
	k := fs.Int("k", 0, fmt.Sprintf("measures per source per realization (0 = default %d)", varbench.DefaultVarianceK))
	realizations := fs.Int("realizations", 0, fmt.Sprintf("independent realizations (0 = default %d)", varbench.DefaultVarianceRealizations))
	seed := fs.Uint64("seed", 1, "study seed")
	structSeed := fs.Uint64("structseed", experiments.StructSeed, "structural seed of the synthetic task distribution")
	par := fs.Int("p", 0, "worker-pool size (0 = GOMAXPROCS); results are identical at any setting")
	format := fs.String("format", "text", "output format: text, json or csv")
	curves := fs.Bool("curves", false, "render SE-vs-k curves (text format only)")
	storeDir := fs.String("store", "", "durable trial-store DSN (a directory, seglog:DIR or mem:): completed measures are appended as they finish and reused on rerun, so an interrupted study resumes where it stopped")
	waitLock := fs.Duration("wait-lock", 0, "wait up to this long for another process to release the store lock instead of failing immediately (0: fail immediately)")
	trialTimeout := fs.Duration("trial-timeout", 0, "per-trial deadline; a measure running longer fails with a timeout (0: no deadline)")
	maxRetries := fs.Int("max-retries", 0, "retries per failed trial on a deterministic seeded backoff (0: no retries)")
	failFast := fs.Bool("fail-fast", false, "abort on the first exhausted trial even when -max-retries or -trial-timeout are set; by default those flags quarantine failed trials instead, and the run exits with code 3 if any were quarantined")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: varbench variance [-task name] [-sources spec] [flags]")
		fmt.Fprintln(fs.Output(), "decomposes a benchmark's variance across its sources of variation")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	task, err := varianceTask(*taskName, *structSeed)
	if err != nil {
		return err
	}
	var probe []varbench.Source
	if *sources != "" {
		if probe, err = varbench.ParseSources(*sources); err != nil {
			return err
		}
		// Probing a source this pipeline never consumes would report
		// spurious zero variance as a measurement: the ξH streams are dead
		// because hyperparameters stay fixed, and each task only reads its
		// own ξO subset (e.g. no augmentation stream on the text tasks).
		// Reject both instead of misleading.
		applicable := make(map[varbench.Source]bool)
		var names []string
		for _, v := range task.Sources() {
			if v != estimator.NumericalNoise {
				applicable[varbench.Source(v)] = true
				names = append(names, string(v))
			}
		}
		for _, s := range probe {
			if s == varbench.VarHOpt || s == varbench.VarHOptSplit {
				return fmt.Errorf("source %q requires rerunning hyperparameter optimization per measure, which this command does not do (it fixes the task defaults, the FixHOptEst regime); probe ξO sources (e.g. -sources learning) and use `varbench fig1` for the ξH rows", s)
			}
			if !applicable[s] {
				return fmt.Errorf("task %s does not use source %q; its sources are %s",
					task.Name(), s, strings.Join(names, ", "))
			}
		}
	} else {
		// The task's own ξO rows of Figure 1, minus the numerical-noise
		// pseudo-source (it has no seed stream to vary).
		for _, v := range task.Sources() {
			if v != estimator.NumericalNoise {
				probe = append(probe, varbench.Source(v))
			}
		}
	}
	var ren varbench.VarianceRenderer
	switch *format {
	case "text":
		ren = varbench.VarianceTextRenderer{Curves: *curves}
	case "json":
		ren = varbench.VarianceJSONRenderer{Indent: true}
	case "csv":
		ren = varbench.VarianceCSVRenderer{}
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", *format)
	}

	// One full pipeline run under the trial's per-source seed assignment:
	// probed sources get fresh seeds, everything else stays fixed.
	params := task.Defaults()
	runTrial := func(t varbench.Trial) (float64, error) {
		streams := xrand.NewStreams(0)
		for _, v := range xrand.AllVars() {
			streams.Reseed(v, t.SourceSeed(varbench.Source(v)))
		}
		return pipeline.RunWithParams(task, params, streams)
	}

	study := varbench.VarianceStudy{
		Name:         task.Name(),
		Pipeline:     runTrial,
		Sources:      probe,
		K:            *k,
		Realizations: *realizations,
		Seed:         *seed,
		Parallelism:  *par,
		TrialTimeout: *trialTimeout,
		FailFast:     *failFast,
	}
	if *maxRetries > 0 {
		study.Retry = varbench.RetryPolicy{MaxAttempts: *maxRetries + 1}
	}
	// An explicit -fail-fast=false alone means "quarantine, no retries",
	// which has one spelling: Retry{MaxAttempts: 1} (see
	// varbench.Experiment.FailFast).
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "fail-fast" && !*failFast && study.Retry.MaxAttempts == 0 {
			study.Retry = varbench.RetryPolicy{MaxAttempts: 1}
		}
	})
	if *storeDir != "" {
		st, err := openStore(ctx, *storeDir, *waitLock)
		if err != nil {
			return err
		}
		defer st.Close()
		study.Store = st
		// The store cannot hash pipeline code; identify this command's
		// pipeline by everything that changes what a trial measures: the
		// task and the structural seed its synthetic distribution (and
		// default hyperparameters) derive from.
		study.PipelineID = fmt.Sprintf("varbench-variance/task=%s/structseed=%d", task.Name(), *structSeed)
		defer func() {
			// The cache note goes to stderr so stdout stays byte-comparable
			// between cached and uncached runs.
			hits, misses := st.Stats()
			fmt.Fprintf(os.Stderr, "varbench: store %s: %d trial(s) reused, %d computed\n",
				*storeDir, hits, misses)
		}()
	}
	rep, err := study.Run(ctx)
	if err != nil {
		return err
	}
	if err := rep.Render(w, ren); err != nil {
		return err
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("%d trial(s) quarantined — the report is partial; rerun with the same -store to retry them: %w",
			len(rep.Failures), errDegraded)
	}
	return nil
}

// varianceTask resolves a task name, including the fast "tiny" study the
// paper tasks are too expensive for in tests and demos.
func varianceTask(name string, structSeed uint64) (*casestudy.Study, error) {
	if name == "tiny" {
		return casestudy.Tiny(structSeed), nil
	}
	s, err := casestudy.ByName(name, structSeed)
	if err != nil {
		return nil, fmt.Errorf("%w (or \"tiny\")", err)
	}
	return s, nil
}
