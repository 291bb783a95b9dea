package varbench

import (
	"fmt"
	"runtime"

	"varbench/internal/stats"
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

// An Option sets one protocol parameter of the score-level entry points
// Analyze, AnalyzeDatasets and NewStream. It is a func(*Experiment), so it
// applies to an Experiment too; every other knob is an Experiment field.
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

// WithUnpaired marks pre-collected scores as unpaired, switching Analyze to
// the Mann-Whitney estimate of P(A>B). Analyze is the only unpaired entry
// point: AnalyzeDatasets and NewStream reject the option, and it has no
// effect on Experiment.Run, which always pairs runs on shared trials.
func WithUnpaired() Option { return func(e *Experiment) { e.unpaired = true } }

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
	if c.EarlyStop != EarlyStopAuto && c.EarlyStop != EarlyStopOff {
		return nil, fmt.Errorf("varbench: EarlyStop must be EarlyStopAuto or EarlyStopOff, got EarlyStopPolicy(%d)", int(c.EarlyStop))
	}
	if c.TrialTimeout < 0 {
		return nil, fmt.Errorf("varbench: TrialTimeout must not be negative, got %v (0 means no deadline)", c.TrialTimeout)
	}
	if err := c.Retry.validate(); err != nil {
		return nil, err
	}
	// The one failure rule: a run that sets neither Retry nor TrialTimeout
	// fails fast; one that sets either quarantines unless FailFast is true.
	if !c.FailFast {
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
