package varbench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/internal/xrand"
	"varbench/store"
)

// A Stream is the incremental analysis engine as a long-lived sidecar:
// paired scores arrive continuously — from a live training fleet, a log
// tailer (see varbench watch), a message queue — and every Extend folds
// them into one resumable weighted-bootstrap state (O(K × n_new) per call)
// whose current three-zone conclusion is available at any moment. Feeding
// chunks of any size is bit-identical to a single batch analysis of the
// full sequence.
//
// With a store attached (WithStore), Flush persists the analysis snapshot;
// a new Stream over the same (seed, WithPipelineID id, store) resumes it:
// replayed score pairs are hash-verified against the snapshot's prefix and
// skipped instead of recomputed, and the final result is byte-identical to
// an uninterrupted stream. γ and the confidence level are query-time knobs:
// changing them reuses the persisted state.
//
// A Stream is not safe for concurrent use; one goroutine feeds it
// (extensions parallelize internally across GOMAXPROCS workers), while
// Subscribe delivers results to any number of consumers.
type Stream struct {
	cfg *Experiment
	ana *incAnalysis

	// The full score history backs snapshot-mismatch rebuilds and the
	// stale-snapshot settle in Result.
	outA, outB []float64

	mu     sync.Mutex // guards subs/closed; the feeding path is single-goroutine
	subs   map[chan *Result]context.Context
	closed bool
}

// NewStream opens an incremental analysis stream. The statistical knobs
// come from the same Options as Analyze (WithGamma, WithConfidence,
// WithBootstrap, WithSeed); WithStore plus
// WithPipelineID make the stream resumable under that ID. A stream is
// paired-only: WithUnpaired is an error.
func NewStream(opts ...Option) (*Stream, error) {
	cfg, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.pairedOnly("NewStream"); err != nil {
		return nil, err
	}
	crit := compare.PAB{Gamma: cfg.Gamma, Level: cfg.Confidence, Bootstrap: cfg.Bootstrap}
	seed := xrand.New(cfg.Seed).Split("analysis/stream").Uint64()
	// The fingerprint pins state validity only (kernel algebra/version, K,
	// seed derivation, stream identity), as the experiment analysis
	// fingerprint does: γ/level/batching stay out, so changing them resumes
	// the same state.
	fp := store.Fingerprint(
		"varbench/stream/v1",
		"pipeline="+cfg.PipelineID,
		fmt.Sprintf("kernel=%s/k=%d/seed=%d", stats.AccPAB.ID(), cfg.Bootstrap, seed),
	)
	ana, err := newIncAnalysis(crit, seed, runtime.GOMAXPROCS(0), cfg.Store,
		store.AnalysisKey(cfg.Seed, "stream/"+cfg.PipelineID), fp)
	if err != nil {
		return nil, err
	}
	return &Stream{
		cfg:  cfg,
		ana:  ana,
		subs: make(map[chan *Result]context.Context),
	}, nil
}

// N returns how many score pairs the stream has consumed.
func (s *Stream) N() int { return s.ana.fed() }

// Replaying reports whether the stream is still replaying pairs a restored
// snapshot already covers; results are unavailable until the replay
// catches up (or Result settles the stream early).
func (s *Stream) Replaying() bool { return s.ana.n() > s.ana.fed() }

// Extend feeds newly arrived paired scores (a[i] and b[i] from the same
// trial) and returns the updated conclusion, publishing it to subscribers.
// The result is nil without error while fewer than two pairs exist or
// while a restored snapshot is still being replayed.
func (s *Stream) Extend(a, b []float64) (*Result, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("varbench: unpaired lengths %d vs %d", len(a), len(b))
	}
	if s.isClosed() {
		return nil, fmt.Errorf("varbench: stream is closed")
	}
	lo := len(s.outA)
	s.outA = append(s.outA, a...)
	s.outB = append(s.outB, b...)
	if err := s.ana.feed(s.outA, s.outB, lo, lo+len(a)); err != nil {
		return nil, err
	}
	if s.ana.fed() < 2 || s.Replaying() {
		return nil, nil
	}
	res, err := s.result()
	if err != nil {
		return nil, err
	}
	s.publish(res)
	return res, nil
}

// Result returns the conclusion over every pair consumed so far. If a
// restored snapshot covers more pairs than this stream has replayed (the
// persisted state came from a longer run), the state is rebuilt from the
// replayed scores first, so the result always describes exactly the pairs
// this stream saw.
func (s *Stream) Result() (*Result, error) {
	if err := s.ana.settle(s.outA, s.outB); err != nil {
		return nil, err
	}
	return s.result()
}

// result shapes the current state as a renderable Result.
func (s *Stream) result() (*Result, error) {
	c, err := s.ana.comparison()
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
			ScoresA:    s.outA,
			ScoresB:    s.outB,
			Pairs:      c.N,
		}},
		WilcoxonP: 1,
		Pairs:     c.N,
	}, nil
}

// Flush persists the analysis snapshot to the stream's store (no-op
// without one) and then invokes the backend's own Flush as a durability
// barrier, so when it returns the snapshot — and, on a coalescing backend
// like seglog, every previously accepted write — has reached the durable
// medium.
func (s *Stream) Flush() error {
	if err := s.ana.save(); err != nil {
		return err
	}
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Flush()
}

// Subscribe returns a channel delivering the latest conclusion after each
// Extend. Delivery is latest-wins: a slow consumer observes the newest
// result, never a backlog. The channel closes when ctx is done or the
// stream closes.
func (s *Stream) Subscribe(ctx context.Context) <-chan *Result {
	ch := make(chan *Result, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		close(ch)
		return ch
	}
	s.subs[ch] = ctx
	s.mu.Unlock()
	if done := ctx.Done(); done != nil {
		go func() {
			<-done
			s.mu.Lock()
			if _, ok := s.subs[ch]; ok {
				delete(s.subs, ch)
				close(ch)
			}
			s.mu.Unlock()
		}()
	}
	return ch
}

// publish delivers res to every subscriber, replacing any undelivered
// previous result.
func (s *Stream) publish(res *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ch := range s.subs {
		select {
		case <-ch: // drop the stale undelivered result
		default:
		}
		ch <- res
	}
}

func (s *Stream) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close ends the stream: subscriber channels close and further Extends
// fail. It does not flush; call Flush first to persist the final state.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for ch := range s.subs {
		delete(s.subs, ch)
		close(ch)
	}
	return nil
}
