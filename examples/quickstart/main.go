// Quickstart: the paper's recommended benchmarking protocol in ~30 lines.
//
// Two "algorithms" (the same small image-classification pipeline with two
// different learning rates) are compared the right way, with a single
// declarative varbench.Experiment:
//
//  1. every run randomizes the data split, initialization, data order,
//     dropout and augmentation, pairing the two algorithms on shared seeds;
//  2. collection fans out across a worker pool and stops at exactly
//     Noether's recommended sample size (29 pairs at γ=0.75), the paper's
//     fixed-N protocol;
//  3. the conclusion is the probability of outperforming P(A>B) with its
//     bootstrap confidence interval, not a bare average difference.
//
// Run: go run ./examples/quickstart [-store dir]
//
// With -store dir, collection is durable: every completed run is recorded
// in the store under dir as it finishes, a killed experiment resumes where
// it stopped on rerun, and an unchanged rerun replays entirely from cache
// (watch the Progress lines complete instantly the second time).
//
// With -max-retries or -trial-timeout, collection is also resilient:
// failed runs are retried on a deterministic backoff, and runs that still
// fail are quarantined — recorded in the store, excluded from the
// analysis, retried on the next rerun — instead of aborting the whole
// experiment. -fail-fast=false quarantines without either flag, and
// -fail-fast aborts even with them. A run that quarantined anything exits
// with code 3 so scripts can tell "partial but usable" from success (0)
// and failure (1).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/hpo"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
	"varbench/store"
)

func main() {
	// quickstart returns the exit code so the deferred store Close runs
	// before os.Exit — a degraded exit must not skip the flush.
	os.Exit(quickstart())
}

func quickstart() int {
	storeDir := flag.String("store", "", "trial store DSN: a directory, seglog:DIR, mem: or faultinject:SCHEDULE:INNER; empty = recompute everything")
	maxRetries := flag.Int("max-retries", 0, "retries per failed run on a deterministic seeded backoff")
	trialTimeout := flag.Duration("trial-timeout", 0, "per-run deadline (0: none)")
	failFast := flag.Bool("fail-fast", false, "abort on the first exhausted run even when -max-retries or -trial-timeout is set. By default a failed run aborts unless one of those is set, which quarantines it instead; -fail-fast=false quarantines with neither. A run that quarantined anything exits with code 3")
	flag.Parse()
	task := casestudy.Tiny(1)

	// A RunFunc executes one full benchmark measurement: fresh seeds for
	// every source of variation, derived from the seed varbench hands us.
	runner := func(params hpo.Params) varbench.RunFunc {
		return func(seed uint64) (float64, error) {
			return pipeline.RunWithParams(task, params, xrand.NewStreams(seed))
		}
	}

	algoA := task.Defaults() // lr = 0.05
	algoB := task.Defaults()
	algoB["lr"] = 0.004 // deliberately too small: slower convergence

	exp := varbench.Experiment{
		A:       runner(algoA),
		B:       runner(algoB),
		Seed:    2021,
		MaxRuns: 64, // a cap above Noether's N: the run stops at 29 pairs
		Progress: func(p varbench.Progress) {
			fmt.Printf("collected %d/%d pairs...\n", p.Pairs, p.MaxRuns)
		},
		TrialTimeout: *trialTimeout,
		FailFast:     *failFast,
	}
	if *maxRetries > 0 {
		exp.Retry = varbench.RetryPolicy{MaxAttempts: *maxRetries + 1, BaseDelay: 10 * time.Millisecond}
	}
	// An explicit -fail-fast=false alone means "quarantine, no retries",
	// which has one spelling: Retry{MaxAttempts: 1} (see
	// varbench.Experiment.FailFast).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fail-fast" && !*failFast && exp.Retry.MaxAttempts == 0 {
			exp.Retry = varbench.RetryPolicy{MaxAttempts: 1}
		}
	})
	if *storeDir != "" {
		st, err := store.OpenDSN(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		exp.Store = st
		// Identify the pipelines: the store serves side A/B cells to any
		// experiment with the same ID and seed, so the ID must change when
		// the algorithms (here, their learning rates) do.
		exp.PipelineID = "quickstart/lr=0.05-vs-0.004"
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	d := res.Datasets[0]
	fmt.Printf("\nA: %+v\n", varbench.Summarize(d.ScoresA))
	fmt.Printf("B: %+v\n\n", varbench.Summarize(d.ScoresB))
	if err := res.Render(os.Stdout, varbench.TextRenderer{}); err != nil {
		log.Fatal(err)
	}
	switch res.Comparison.Conclusion {
	case varbench.SignificantAndMeaningful:
		fmt.Println("=> adopt algorithm A")
	case varbench.SignificantNotMeaningful:
		fmt.Println("=> A is reliably but negligibly better; not worth switching")
	default:
		fmt.Println("=> no reliable difference; the gap is within benchmark noise")
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(os.Stderr, "quickstart: %d run(s) quarantined — the conclusion above is partial; rerun with the same -store to retry them\n", res.Quarantined)
		return 3
	}
	return 0
}
