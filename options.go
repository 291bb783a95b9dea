package varbench

import (
	"fmt"
	"runtime"
	"time"

	"varbench/internal/stats"
	"varbench/store"
)

// Default knobs of the recommended protocol.
const (
	// DefaultConfidence is the confidence level of the bootstrap interval.
	DefaultConfidence = 0.95
	// DefaultBootstrap is the number of bootstrap resamples of the
	// unpaired test. A paired test computes the bootstrap's exact limit
	// instead and ignores it.
	DefaultBootstrap = 1000
)

// An Option adjusts an Experiment (or, for the score-level entry points
// Analyze and AnalyzeDatasets, the protocol parameters they share with
// Experiment).
type Option func(*Experiment)

// WithGamma sets the meaningfulness threshold for P(A>B) (default 0.75).
// Unlike the zero Experiment.Gamma field (which means "use the default"),
// an explicit out-of-range value — including 0 — is rejected.
func WithGamma(gamma float64) Option {
	return func(e *Experiment) { e.Gamma = gamma; e.gammaSet = true }
}

// WithConfidence sets the CI confidence level (default 0.95). An explicit
// out-of-range value — including 0 — is rejected.
func WithConfidence(level float64) Option {
	return func(e *Experiment) { e.Confidence = level; e.confidenceSet = true }
}

// WithBootstrap sets the number of bootstrap resamples of the unpaired test
// (default 1000). Paired analyses compute the bootstrap's K → ∞ interval
// exactly and ignore it. An explicit non-positive value is rejected.
func WithBootstrap(k int) Option {
	return func(e *Experiment) { e.Bootstrap = k; e.bootstrapSet = true }
}

// WithSeed sets the experiment's root seed, from which all collection and
// unpaired-bootstrap randomness derives (default 1). Unlike the Experiment.Seed
// field, whose zero value means "use the default", an explicit WithSeed(0)
// is honored.
func WithSeed(seed uint64) Option {
	return func(e *Experiment) { e.Seed = seed; e.seedSet = true }
}

// WithParallelism sets the worker-pool size used during collection
// (default: GOMAXPROCS): up to that many trials are in flight per dataset.
// Results are identical at any parallelism. An explicit negative value is
// rejected; 0 means "use the default".
func WithParallelism(n int) Option { return func(e *Experiment) { e.Parallelism = n } }

// WithMaxRuns caps the number of paired measurements collected
// (default: Noether's recommended sample size for the chosen γ).
func WithMaxRuns(n int) Option { return func(e *Experiment) { e.MaxRuns = n } }

// WithEarlyStop selects the stopping policy (default EarlyStopAuto).
func WithEarlyStop(p EarlyStopPolicy) Option { return func(e *Experiment) { e.EarlyStop = p } }

// WithSources restricts which sources of variation receive a fresh seed on
// every run; the rest stay fixed (default: all sources vary).
func WithSources(sources ...Source) Option {
	return func(e *Experiment) { e.Sources = sources }
}

// WithStore attaches a durable trial store: completed measurements are
// appended as soon as they exist and trials already recorded under the same
// spec fingerprint are served from the store instead of re-running the
// pipeline, making interrupted runs resumable and identical cells shareable
// across overlapping experiments. Any store.Backend works — an in-memory
// store, a seglog, or a DSN-opened backend from store.OpenDSN. See
// Experiment.Store.
func WithStore(s store.Backend) Option { return func(e *Experiment) { e.Store = s } }

// WithPipelineID names the pipeline implementation inside the trial store's
// spec fingerprint, isolating different pipelines that share one store
// directory. See Experiment.PipelineID.
func WithPipelineID(id string) Option { return func(e *Experiment) { e.PipelineID = id } }

// WithUnpaired marks pre-collected scores as unpaired, switching Analyze to
// the Mann-Whitney estimate of P(A>B). Analyze is the only unpaired entry
// point: AnalyzeDatasets and NewStream reject the option, and it has no
// effect on Experiment.Run, which always pairs runs on shared trials.
func WithUnpaired() Option { return func(e *Experiment) { e.Unpaired = true } }

// WithProgress installs a callback invoked once per trial index, in index
// order within each dataset; see Experiment.Progress.
func WithProgress(f func(Progress)) Option { return func(e *Experiment) { e.Progress = f } }

// WithTrialTimeout bounds every pipeline invocation: an attempt running
// longer fails with ErrTrialTimeout. Setting a timeout opts the experiment
// into quarantine mode by default; see Experiment.FailFast. An explicit
// negative value is rejected; 0 means "no deadline".
func WithTrialTimeout(d time.Duration) Option {
	return func(e *Experiment) { e.TrialTimeout = d }
}

// WithRetry installs a retry policy for failed trials; see RetryPolicy.
// Setting a policy (any non-zero MaxAttempts) opts the experiment into
// quarantine mode by default; see Experiment.FailFast.
func WithRetry(p RetryPolicy) Option {
	return func(e *Experiment) { e.Retry = p }
}

// WithMaxRetries is shorthand for WithRetry with n retries after the first
// attempt (MaxAttempts = n+1) and default backoff.
func WithMaxRetries(n int) Option {
	return func(e *Experiment) { e.Retry = RetryPolicy{MaxAttempts: n + 1} }
}

// WithFailFast selects explicitly between aborting on the first exhausted
// trial (true) and quarantining failed cells (false), overriding the
// default inferred from the other resilience knobs. Unlike the
// Experiment.FailFast field — whose zero value means "fail fast unless
// TrialTimeout or Retry is configured" — WithFailFast(false) alone is
// honored: it enables quarantine mode with single attempts and no deadline.
func WithFailFast(v bool) Option {
	return func(e *Experiment) { e.FailFast = v; e.failFastSet = true }
}

// withDefaults returns a copy of e with zero-valued protocol knobs replaced
// by their defaults, and rejects out-of-range settings.
func (e *Experiment) withDefaults() (*Experiment, error) {
	c := *e
	if c.Gamma == 0 && !c.gammaSet {
		c.Gamma = DefaultGamma
	}
	if !(c.Gamma > 0.5 && c.Gamma < 1) { // written positively so that NaN fails
		return nil, fmt.Errorf("varbench: γ must be in (0.5, 1), got %v", c.Gamma)
	}
	if c.Confidence == 0 && !c.confidenceSet {
		c.Confidence = DefaultConfidence
	}
	if !(c.Confidence > 0 && c.Confidence < 1) {
		return nil, fmt.Errorf("varbench: confidence must be in (0, 1), got %v", c.Confidence)
	}
	if c.Bootstrap == 0 && !c.bootstrapSet {
		c.Bootstrap = DefaultBootstrap
	}
	if c.Bootstrap < 1 {
		return nil, fmt.Errorf("varbench: bootstrap resamples must be ≥ 1, got %d", c.Bootstrap)
	}
	if c.Seed == 0 && !c.seedSet {
		c.Seed = 1
	}
	// Zero still means "use the default" for the count knobs, but an
	// explicit negative is an error, matching how WithGamma/WithConfidence/
	// WithBootstrap treat out-of-range input. The zero value of these
	// fields cannot be confused with an explicit setting, so no set flag is
	// needed: any negative must have been written deliberately.
	if c.MaxRuns == 0 {
		c.MaxRuns = stats.NoetherSampleSize(c.Gamma, 0.05, 0.05)
	}
	if c.MaxRuns < 2 {
		return nil, fmt.Errorf("varbench: MaxRuns must be ≥ 2, got %d", c.MaxRuns)
	}
	if c.Parallelism < 0 {
		return nil, fmt.Errorf("varbench: Parallelism must not be negative, got %d (0 means default)", c.Parallelism)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.TrialTimeout < 0 {
		return nil, fmt.Errorf("varbench: TrialTimeout must not be negative, got %v (0 means no deadline)", c.TrialTimeout)
	}
	if err := c.Retry.validate(); err != nil {
		return nil, err
	}
	// FailFast defaults on — today's behavior — unless the spec configures
	// a resilience knob, which opts it into quarantine mode. A true field
	// is always honored (fail fast even with retries/deadlines); an
	// explicit WithFailFast(false) forces quarantine mode on its own.
	if !c.failFastSet && !c.FailFast {
		c.FailFast = c.Retry.MaxAttempts == 0 && c.TrialTimeout == 0
	}
	return &c, nil
}

// applyOptions builds a defaulted Experiment carrying only protocol
// parameters, for the score-level entry points.
func applyOptions(opts []Option) (*Experiment, error) {
	var e Experiment
	for _, opt := range opts {
		opt(&e)
	}
	return e.withDefaults()
}
