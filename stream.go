package varbench

import (
	"fmt"

	"varbench/internal/compare"
)

// A Stream is the recommended test as a long-lived sidecar: paired scores
// arrive continuously — from a live training fleet, a log tailer (see
// varbench watch), a message queue — and every Add folds them into the
// win/tie/loss counts and score sums, whose current three-zone conclusion
// Result computes at any moment. An Add costs O(its pairs) and computes no
// interval; a Result costs one exact interval over all n pairs so far,
// which is O(√n) with ties, and Extend is an Add followed by a Result.
// Feeding chunks of any size gives the same Comparison as a single Analyze
// of the full sequence.
//
// A Stream keeps no score history: its whole state is three counts and two
// sums, so its memory stays constant however many pairs it consumes, and
// its results carry no scores (the producer's log holds them). For the same
// reason it holds nothing worth persisting: a rerun re-reads its input
// instead of resuming a snapshot, and NewStream rejects a store.
//
// A Stream is not safe for concurrent use: one goroutine feeds it and
// reads its results.
type Stream struct {
	cfg    *Experiment
	ana    *compare.AnalysisState
	closed bool
}

// NewStream opens an analysis stream. The statistical knobs come from the
// same Options as Analyze (WithGamma, WithConfidence); WithBootstrap and
// WithSeed are accepted and, as in every paired analysis, ignored. A stream
// is paired-only: WithUnpaired is an error. An Option that sets
// Experiment.Store is an error too: the stream's whole analysis state is
// three counts and two score sums, so there is nothing to resume that
// re-reading the input does not rebuild.
func NewStream(opts ...Option) (*Stream, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.pairedOnly("NewStream"); err != nil {
		return nil, err
	}
	if cfg.Store != nil {
		return nil, fmt.Errorf("varbench: NewStream takes no store: %s", errStreamStore)
	}
	ana, err := compare.PAB{Gamma: cfg.Gamma, Level: cfg.Confidence, Bootstrap: cfg.Bootstrap}.NewAnalysis()
	if err != nil {
		return nil, err
	}
	return &Stream{cfg: cfg, ana: ana}, nil
}

// errStreamStore says why a stream takes no store.
const errStreamStore = "a stream's analysis is three counts and two score sums, rebuilt by re-reading its input, so there is no snapshot to persist"

// N returns how many score pairs the stream has consumed.
func (s *Stream) N() int { return s.ana.N() }

// Add feeds newly arrived paired scores (a[i] and b[i] from the same
// trial) without computing a conclusion: call Result when one is read. A
// NaN or ±Inf score fails the whole call, naming its position in the
// stream, before any pair is added.
func (s *Stream) Add(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("varbench: unpaired lengths %d vs %d", len(a), len(b))
	}
	if s.closed {
		return fmt.Errorf("varbench: stream is closed")
	}
	if err := finiteScores(a, b, "", s.ana.N()); err != nil {
		return err
	}
	for i := range a {
		s.ana.Add(a[i], b[i])
	}
	return nil
}

// Extend is Add followed by Result: it feeds newly arrived paired scores
// and returns the updated conclusion, or nil without error while fewer
// than two pairs exist.
func (s *Stream) Extend(a, b []float64) (*Result, error) {
	if err := s.Add(a, b); err != nil {
		return nil, err
	}
	if s.ana.N() < 2 {
		return nil, nil
	}
	return s.Result()
}

// Result returns the conclusion over every pair consumed so far.
func (s *Stream) Result() (*Result, error) {
	c, err := comparisonOf(s.ana)
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:       s.cfg.Name,
		Gamma:      s.cfg.Gamma,
		Seed:       s.cfg.Seed,
		Comparison: c,
		Datasets: []DatasetResult{{
			Comparison: c,
			Pairs:      c.N,
		}},
		WilcoxonP: 1,
		Pairs:     c.N,
	}, nil
}

// Flush is a no-op kept for callers that flushed a stream's snapshot:
// a stream has no store to flush.
func (s *Stream) Flush() error { return nil }

// Close ends the stream: further Adds and Extends fail.
func (s *Stream) Close() error {
	s.closed = true
	return nil
}
