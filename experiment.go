package varbench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/internal/xrand"
	"varbench/store"
)

// RunFunc executes one complete benchmark measurement of a learning
// pipeline — ideally training with fresh data split, initialization, data
// order, augmentation (and, budget permitting, hyperparameter optimization)
// seeds derived from seed — and returns the performance (higher is better).
// A RunFunc must be a pure function of its seed: the collection engine may
// invoke it from multiple goroutines and in any order.
type RunFunc func(seed uint64) (float64, error)

// TrialFunc is the seed-aware counterpart of RunFunc: it receives the full
// per-source seed assignment of one trial, enabling pipelines that vary only
// the experiment's chosen Sources while holding all others fixed. Like
// RunFunc it must be a pure function of its Trial.
type TrialFunc func(t Trial) (float64, error)

// EarlyStopPolicy selects how Experiment.Run decides it has collected
// enough paired measurements.
type EarlyStopPolicy int

const (
	// EarlyStopAuto (the default) is the paper's fixed-N protocol: it
	// collects exactly N pairs, where N is Noether's recommended sample size
	// for the dataset's γ (Bonferroni-adjusted in multi-dataset runs) capped
	// by MaxRuns, and evaluates the recommended test once, on the final
	// pairs. It never looks at the CI before then, so the test keeps its
	// single-look error rates. A quarantined trial is made up for by the
	// next trial index, while MaxRuns leaves indices to spend.
	EarlyStopAuto EarlyStopPolicy = iota
	// EarlyStopOff always collects exactly MaxRuns pairs.
	EarlyStopOff
)

// A Dataset names one benchmark in a multi-dataset experiment and may carry
// its own pipelines; nil ones fall back to the experiment-level A/B.
type Dataset struct {
	Name           string
	A, B           RunFunc
	ATrial, BTrial TrialFunc
}

// Progress reports the state of a running experiment after each trial. It
// fires once per trial index, in index order, so the sequence of events is
// the same at any Parallelism.
type Progress struct {
	// Dataset is the dataset being collected ("" for single-dataset runs).
	Dataset string
	// Pairs is the number of trials that survived so far on this dataset:
	// paired runs for Experiment.Run, single measurements for
	// Experiment.Collect.
	Pairs int
	// MaxRuns is the collection cap.
	MaxRuns int
	// Quarantined counts the trials quarantined so far on this dataset
	// (always 0 in fail-fast mode, where the first failure aborts the run).
	Quarantined int
}

// An Experiment is a declarative benchmark comparison following the paper's
// recommended protocol end to end: it collects paired measurements of two
// pipelines under randomized sources of variation, across a worker pool,
// until Noether's recommended sample size is reached, and concludes with
// the probability of outperforming P(A>B) against the meaningfulness
// threshold γ. The zero value of every knob means "use the recommended
// default", so
//
//	res, err := varbench.Experiment{A: runA, B: runB}.Run(ctx)
//
// is a complete comparison, powered per Noether's recommendation. Results
// are bit-identical at any Parallelism: every trial's seeds are derived
// from (Seed, trial index) alone.
type Experiment struct {
	// Name labels the experiment in reports. Optional.
	Name string

	// A and B are the two pipelines under comparison. Alternatively set
	// ATrial/BTrial to receive per-source seed assignments; setting both
	// forms for the same algorithm is an error.
	A, B           RunFunc
	ATrial, BTrial TrialFunc

	// Datasets switches to a multi-dataset comparison (Section 6): each
	// dataset is collected separately and judged at a Bonferroni-adjusted
	// threshold, and the evidence is combined. Dataset-level pipelines
	// default to the experiment-level ones.
	Datasets []Dataset

	// Sources lists the sources of variation that receive a fresh seed on
	// every trial; the rest stay fixed for the whole experiment. Empty
	// means vary all sources, the paper's headline recommendation.
	// Restricting Sources requires TrialFunc pipelines (ATrial/BTrial): a
	// plain RunFunc only sees the per-trial root seed and would vary
	// everything regardless, so that combination is rejected.
	Sources []Source

	// Gamma is the meaningfulness threshold for P(A>B) (default 0.75).
	Gamma float64
	// Confidence is the CI confidence level (default 0.95).
	Confidence float64
	// Bootstrap is the number of bootstrap resamples of the unpaired test
	// (default 1000). Run's paired test computes the bootstrap's exact
	// limit and ignores it.
	Bootstrap int
	// Seed is the root of all collection and unpaired-bootstrap
	// randomness. The zero value means "use the default" (1); to run with
	// seed 0, use WithSeed(0).
	Seed uint64

	// MaxRuns caps the trials run per dataset, quarantined ones included
	// (default: Noether's recommended sample size for γ, e.g. 29 at
	// γ=0.75).
	MaxRuns int
	// Parallelism is the collection worker-pool size (default GOMAXPROCS).
	// Workers claim trials one at a time, so up to Parallelism trials are
	// in flight. In a multi-dataset experiment the datasets are collected
	// concurrently, each with its own pool, so up to
	// len(Datasets)·Parallelism trials may be in flight at once.
	Parallelism int
	// EarlyStop selects the stopping policy (default EarlyStopAuto).
	EarlyStop EarlyStopPolicy

	// Store, when set, makes collection durable and resumable: every
	// completed (trial, side) measurement is appended to the store as soon
	// as it exists, and trials already recorded under this spec's
	// fingerprint are served from the store instead of re-running the
	// pipeline. Because trial seeds depend only on (Seed, dataset, index),
	// cache hits are bit-identical to recomputation at any Parallelism, and
	// an interrupted Run resumes exactly where it stopped when re-run with
	// the same store. Only trials are stored: the analysis is three counts
	// and two sums, which a rerun recounts from the cached pairs. Any
	// store.Backend implementation works; store.NewMem, store.OpenSegLog
	// and store.OpenDSN all produce one. See the store package.
	Store store.Backend
	// PipelineID names the pipeline implementation inside the store's spec
	// fingerprint. The store cannot hash code: two experiments sharing a
	// store directory but running different pipelines must set distinct
	// IDs, or stale scores would be served as fresh. Empty is a valid ID
	// (one store directory per pipeline needs no label).
	PipelineID string

	// TrialTimeout, when positive, bounds every pipeline invocation: an
	// attempt that runs longer fails with ErrTrialTimeout (and is retried
	// or quarantined per the other resilience knobs). The timed-out
	// pipeline's goroutine is abandoned — a TrialFunc cannot be killed —
	// so pipelines that can hang should also honor cancellation
	// themselves when possible. Setting TrialTimeout opts the experiment
	// into quarantine mode; see FailFast.
	TrialTimeout time.Duration
	// Retry re-runs failed trials with deterministic seeded backoff; see
	// RetryPolicy. The zero value means a single attempt. Setting
	// Retry.MaxAttempts opts the experiment into quarantine mode; see
	// FailFast. MaxAttempts: 1 quarantines without retrying.
	Retry RetryPolicy
	// FailFast selects what a trial that exhausts its attempts does to the
	// run: abort it with the trial's error (true), or quarantine the failed
	// cell and keep collecting (false). A run that sets neither Retry nor
	// TrialTimeout fails fast whatever this field says. Quarantined cells
	// are dropped from the analysis, recorded in the store under
	// failure/... keys with their attempt history, and surfaced in the
	// Result's failure summary; re-running with the same store retries
	// them.
	FailFast bool

	// Progress, when set, is invoked once per trial index, in index order
	// within each dataset. Invocations are never concurrent: it runs on a
	// collection worker, and multi-dataset runs, which collect datasets in
	// parallel, hold a mutex around it, so events of different datasets
	// interleave in completion order. A slow callback slows collection.
	Progress func(Progress)

	// The set flags distinguish an explicit zero passed through an Option
	// (honored for Seed, rejected as out-of-range for the others) from an
	// unset field, which takes the default.
	seedSet       bool
	gammaSet      bool
	confidenceSet bool
	bootstrapSet  bool

	// unpaired selects the unpaired test of the score-level Analyze entry
	// point; see WithUnpaired.
	unpaired bool
}

// guard bundles the resilience knobs for the collection engine.
func (e *Experiment) guard() *guard {
	return &guard{
		timeout:  e.TrialTimeout,
		retry:    e.Retry.normalized(),
		failFast: e.FailFast,
		sleep:    sleepCtx,
	}
}

// Run executes the experiment: it collects paired measurements (in
// parallel, honoring ctx) and returns the statistical conclusion. The
// result is deterministic given the spec — identical at any Parallelism.
func (e Experiment) Run(ctx context.Context) (*Result, error) {
	cfg, err := e.withDefaults()
	if err != nil {
		return nil, err
	}
	datasets, err := cfg.datasetList()
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow nondeterm(Elapsed is wall-clock metadata, not part of the deterministic result)

	// A multi-dataset run judges each dataset at the Bonferroni-adjusted
	// threshold, then combines the evidence through combineEvidence. The
	// datasets are collected concurrently, one collectN job each: every
	// dataset derives its seeds from its own (Seed, name)-keyed root, so
	// scheduling cannot perturb any per-dataset result.
	gamma := cfg.Gamma
	if len(datasets) > 1 {
		gamma = stats.GammaBonferroni(cfg.Gamma, 0.05, len(datasets))
		if progress := cfg.Progress; progress != nil {
			var mu sync.Mutex
			cfg.Progress = func(p Progress) {
				mu.Lock()
				defer mu.Unlock()
				progress(p)
			}
		}
	}
	drs := make([]DatasetResult, len(datasets))
	err = collectN(ctx, len(datasets), len(datasets), func(ctx context.Context, i int) error {
		dr, err := cfg.runDataset(ctx, datasets[i], gamma)
		if err != nil {
			return err
		}
		drs[i] = *dr
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:         cfg.Name,
		Gamma:        cfg.Gamma,
		Seed:         cfg.Seed,
		Datasets:     drs,
		EarlyStopped: true,
	}
	for _, dr := range drs {
		res.Pairs += dr.Pairs
		res.Runs += 2 * dr.Pairs
		res.Quarantined += len(dr.Failures)
		res.EarlyStopped = res.EarlyStopped && dr.EarlyStopped
	}
	if len(drs) == 1 {
		// A single dataset — named or not — needs no multiple-comparison
		// adjustment and reports through the Comparison convenience field.
		res.Comparison = drs[0].Comparison
		res.StopReason = drs[0].StopReason
		res.WilcoxonP = 1
	} else {
		res.AllMeaningful, res.WilcoxonP = combineEvidence(res.Datasets)
	}
	res.Elapsed = time.Since(start) //lint:allow nondeterm(Elapsed is wall-clock metadata, not part of the deterministic result)
	return res, nil
}

// Collect runs the experiment's A pipeline MaxRuns times under the
// experiment's seed-derivation rules and returns the measurements. This is
// the entry point for variance studies of a single pipeline: set Sources to
// the sources to probe (the rest stay fixed) and summarize the spread of
// the returned scores. The stopping policy does not apply; exactly MaxRuns
// measurements are collected unless ctx is canceled or the pipeline errors
// — or, in quarantine mode, fewer when trials exhaust their attempts (use
// collectAll via VarianceStudy, or compare len(out) to MaxRuns, to detect
// the shortfall). Collect runs Run's schedule without its make-up rounds,
// so the measurements come in trial-index order at any Parallelism.
// Progress, when set, fires once per trial index, in index order.
func (e Experiment) Collect(ctx context.Context) ([]float64, error) {
	out, _, err := e.collectAll(ctx)
	return out, err
}

// collectAll is Collect plus the quarantined-failure list, in trial-index
// order. It is the engine behind VarianceStudy cells.
func (e Experiment) collectAll(ctx context.Context) ([]float64, []TrialFailure, error) {
	cfg, err := e.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if cfg.A != nil && cfg.ATrial != nil {
		return nil, nil, fmt.Errorf("varbench: set A or ATrial, not both")
	}
	if err := cfg.checkSources(Dataset{A: cfg.A}); err != nil {
		return nil, nil, err
	}
	run, err := pickRunner(cfg.ATrial, cfg.A, "A")
	if err != nil {
		return nil, nil, err
	}
	s := cfg.newSchedule("", "", run, nil, cfg.MaxRuns)
	if _, err := s.collect(ctx, cfg.MaxRuns, cfg.MaxRuns); err != nil {
		return nil, nil, err
	}
	return s.outA, s.failures, nil
}

// datasetList normalizes the experiment into one or more fully-specified
// datasets and validates the pipelines.
func (e *Experiment) datasetList() ([]Dataset, error) {
	if e.A != nil && e.ATrial != nil {
		return nil, fmt.Errorf("varbench: set A or ATrial, not both")
	}
	if e.B != nil && e.BTrial != nil {
		return nil, fmt.Errorf("varbench: set B or BTrial, not both")
	}
	if len(e.Datasets) == 0 {
		if e.A == nil && e.ATrial == nil {
			return nil, fmt.Errorf("varbench: experiment needs pipeline A")
		}
		if e.B == nil && e.BTrial == nil {
			return nil, fmt.Errorf("varbench: experiment needs pipeline B")
		}
		if err := e.checkSources(Dataset{A: e.A, B: e.B}); err != nil {
			return nil, err
		}
		return []Dataset{{A: e.A, B: e.B, ATrial: e.ATrial, BTrial: e.BTrial}}, nil
	}
	out := make([]Dataset, len(e.Datasets))
	seen := make(map[string]bool, len(e.Datasets))
	for i, ds := range e.Datasets {
		if ds.Name == "" {
			return nil, fmt.Errorf("varbench: dataset %d needs a name", i)
		}
		if seen[ds.Name] {
			return nil, fmt.Errorf("varbench: duplicate dataset name %q", ds.Name)
		}
		seen[ds.Name] = true
		if ds.A != nil && ds.ATrial != nil {
			return nil, fmt.Errorf("varbench: dataset %s: set A or ATrial, not both", ds.Name)
		}
		if ds.B != nil && ds.BTrial != nil {
			return nil, fmt.Errorf("varbench: dataset %s: set B or BTrial, not both", ds.Name)
		}
		if ds.A == nil && ds.ATrial == nil {
			ds.A, ds.ATrial = e.A, e.ATrial
		}
		if ds.B == nil && ds.BTrial == nil {
			ds.B, ds.BTrial = e.B, e.BTrial
		}
		if ds.A == nil && ds.ATrial == nil {
			return nil, fmt.Errorf("varbench: dataset %s needs pipeline A", ds.Name)
		}
		if ds.B == nil && ds.BTrial == nil {
			return nil, fmt.Errorf("varbench: dataset %s needs pipeline B", ds.Name)
		}
		if err := e.checkSources(ds); err != nil {
			return nil, err
		}
		out[i] = ds
	}
	return out, nil
}

// checkSources rejects restricted Sources combined with plain RunFunc
// pipelines: a RunFunc derives everything from the per-trial root seed, so
// it would silently vary every source instead of only the chosen ones.
func (e *Experiment) checkSources(ds Dataset) error {
	if len(e.Sources) == 0 {
		return nil
	}
	if ds.A != nil || ds.B != nil {
		return fmt.Errorf("varbench: restricting Sources requires TrialFunc pipelines (ATrial/BTrial); a plain RunFunc cannot hold sources fixed")
	}
	return nil
}

// pickRunner adapts either form of pipeline to a TrialFunc.
func pickRunner(tf TrialFunc, rf RunFunc, which string) (TrialFunc, error) {
	switch {
	case tf != nil:
		return tf, nil
	case rf != nil:
		return func(t Trial) (float64, error) { return rf(t.Seed) }, nil
	default:
		return nil, fmt.Errorf("varbench: experiment needs pipeline %s", which)
	}
}

// runDataset collects one dataset's paired measurements, then evaluates
// the recommended test once at the meaningfulness threshold gamma. Under
// EarlyStopAuto it collects Noether's N at gamma, capped by MaxRuns, and
// makes up for quarantined trials with the next trial indices while
// MaxRuns leaves some; under EarlyStopOff it runs MaxRuns trials and
// reports the ones that survive. Memory tracks that N, never the MaxRuns
// cap, which matters when MaxRuns is set far above Noether's N.
func (e *Experiment) runDataset(ctx context.Context, ds Dataset, gamma float64) (*DatasetResult, error) {
	// gamma may be the Bonferroni-adjusted threshold rather than the
	// user-validated Gamma field; re-validate at the point of consumption.
	if !(gamma > 0.5 && gamma < 1) {
		return nil, fmt.Errorf("varbench: adjusted γ = %v out of (0.5, 1)", gamma)
	}
	runA, err := pickRunner(ds.ATrial, ds.A, "A")
	if err != nil {
		return nil, err
	}
	runB, err := pickRunner(ds.BTrial, ds.B, "B")
	if err != nil {
		return nil, err
	}
	label := ""
	if ds.Name != "" {
		label = "dataset " + ds.Name + ": "
	}
	// The analysis is three counts and two sums, fed in trial-index order
	// once collection ends.
	ana, err := compare.PAB{Gamma: gamma, Level: e.Confidence, Bootstrap: e.Bootstrap}.NewAnalysis()
	if err != nil {
		return nil, err
	}
	recommended := stats.NoetherSampleSize(gamma, 0.05, 0.05)
	want := e.MaxRuns
	if e.EarlyStop == EarlyStopAuto {
		want = min(recommended, e.MaxRuns)
	}
	s := e.newSchedule(ds.Name, label, runA, runB, want)
	used, err := s.collect(ctx, want, e.MaxRuns)
	if err != nil {
		return nil, err
	}
	outA, outB, n := s.outA, s.outB, len(s.outA)
	if n < 2 && len(s.failures) > 0 {
		return nil, fmt.Errorf("varbench: %sonly %d pair(s) survived collection, %d quarantined — cannot analyze: %w (first: %s)",
			label, n, len(s.failures), ErrTrialFailed, s.failures[0].String())
	}
	// The stop counts as Noether's only when it left budget unspent: a run
	// whose cap is N itself stops at MaxRuns.
	stop := StopMaxRuns
	if e.EarlyStop == EarlyStopAuto && n >= recommended && used < e.MaxRuns {
		stop = StopNoetherN
	}
	for i := range outA {
		ana.Add(outA[i], outB[i])
	}
	final, err := comparisonOf(ana)
	if err != nil {
		return nil, err
	}
	return &DatasetResult{
		Name:         ds.Name,
		Comparison:   final,
		ScoresA:      outA,
		ScoresB:      outB,
		Pairs:        n,
		Failures:     s.failures,
		EarlyStopped: stop != StopMaxRuns,
		StopReason:   stop,
	}, nil
}

// trialCache prepares the store adapter for one dataset's collection, or
// nil (always-miss) when no store is attached.
func (e *Experiment) trialCache(dataset string) *trialCache {
	if e.Store == nil {
		return nil
	}
	return &trialCache{store: e.Store, fp: e.specFingerprint(), seed: e.Seed, dataset: dataset}
}

// specFingerprint hashes the parts of the spec that change what a trial
// measures: the pipeline identity and the varied-source assignment. It
// deliberately excludes MaxRuns, Parallelism, the stopping policy and
// every analysis knob — none of them affect a trial's seeds — so
// raising a budget, changing worker counts or re-running after an interrupt
// reuses every recorded trial, and overlapping studies share identical
// cells. A record whose fingerprint does not match is rejected
// (recomputed), never silently reused.
func (e *Experiment) specFingerprint() string {
	varied := e.Sources
	restricted := len(varied) > 0
	if !restricted {
		varied = AllSources()
	}
	return store.Fingerprint(
		"varbench/spec/v1",
		"pipeline="+e.PipelineID,
		// Restriction changes how unknown custom labels derive (fixedRoot
		// vs per-trial), even when the varied set is identical.
		fmt.Sprintf("restricted=%t", restricted),
		"varied="+canonicalSourceLabels(varied),
	)
}

// datasetRoot derives the seed root of one dataset's collection stream.
// The unnamed single dataset uses the experiment seed directly, which keeps
// trial seeds bit-identical to the historical paired-collection sequence.
func (e *Experiment) datasetRoot(name string) uint64 {
	if name == "" {
		return e.Seed
	}
	return xrand.New(e.Seed).Split("dataset/" + name).Uint64()
}

// A trialStream lazily derives the seed assignment of one trial at a time.
// Seeds depend only on (Seed, dataset name, trial index), never on worker
// scheduling, which is what makes results parallelism-invariant — and the
// stream draws them in exactly the order the historical eager makeTrials
// did, so the sequence is pinned bit-for-bit (see
// TestTrialStreamMatchesHistoricalSeeds). Streaming means an experiment
// whose MaxRuns is huge but whose N is small derives the trials of each
// collection round only, not MaxRuns Trial structs before the first
// measurement; a trial is its index, its root seed and the stream's one
// shared seedPlan.
type trialStream struct {
	root *xrand.Source
	plan *seedPlan
	next int // index of the next trial to derive
}

// trialStream prepares the lazy per-trial seed derivation for one dataset.
// The default vary-all stream needs no plan: SourceSeed's nil-plan rule is
// exactly its rule.
func (e *Experiment) trialStream(dataset string) *trialStream {
	root := xrand.New(e.datasetRoot(dataset))
	if len(e.Sources) == 0 {
		return &trialStream{root: root}
	}
	// Custom labels listed in Sources vary too, though SourceSeed holds
	// unlisted unknown labels fixed.
	plan := &seedPlan{varied: make(map[Source]bool, len(e.Sources)), fixed: make(map[Source]uint64)}
	for _, s := range e.Sources {
		plan.varied[s] = true
	}
	// Split does not consume the parent stream, but its output depends on
	// the parent's state: derive all fixed-source seeds before drawing any
	// trial seeds so the trial-seed sequence matches xrand.New(root).
	plan.fixedRoot = root.Split("custom-fixed").Uint64()
	for _, s := range AllSources() {
		if !plan.varied[s] {
			plan.fixed[s] = root.Split("fixed/" + string(s)).Uint64()
		}
	}
	return &trialStream{root: root, plan: plan}
}

// trial derives the next trial of the stream. It allocates nothing;
// SourceSeed derives the per-source seeds when asked.
func (s *trialStream) trial() Trial {
	t := Trial{Index: s.next, Seed: s.root.Uint64(), plan: s.plan}
	s.next++
	return t
}
