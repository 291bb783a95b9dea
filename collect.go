package varbench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"varbench/store"
)

// The collection engine: a bounded worker pool that claims one dataset's
// trials by index and commits their scores in index order (see schedule).
// Trials come from a trialStream whose seeds depend only on (Seed,
// dataset, trial index), fixed before any trial is dispatched, so workers
// share no mutable state beyond what the commit lock guards, and the
// output is identical at any parallelism. Multi-dataset experiments run
// one such pool per dataset concurrently. Cancellation is observed between
// trials; a trial already started is allowed to finish.
//
// When a trial store is attached, the engine is cache-first: each (trial,
// side) cell is looked up before the pipeline runs, and every freshly
// measured score is appended to the store as soon as it exists — not at the
// end of the run — so an interrupted collection leaves every completed
// trial durable. Because a cell's score is a pure function of its identity,
// serving it from the store is bit-identical to recomputing it, and cache
// hits cannot perturb parallelism-independence.
//
// The resilience layer wraps each cell's execution: panic recovery converts
// a panicking TrialFunc into an error, a per-trial deadline bounds each
// attempt, and a RetryPolicy re-runs retryable failures on a deterministic
// seeded backoff schedule. In quarantine mode (FailFast false) a cell that
// exhausts its attempts is recorded as a TrialFailure — durably, under a
// store failure/... key with its attempt history — and collection continues;
// in fail-fast mode (the default without resilience knobs) the first failure
// aborts the run exactly as it always did.

// A trialCache adapts a store.Backend to one dataset's collection: it holds
// the spec fingerprint and key parts shared by all of the dataset's trials.
// A nil *trialCache is a valid always-miss cache.
type trialCache struct {
	store   store.Backend
	fp      string
	seed    uint64
	dataset string
}

// lookup builds the key of one (trial, side) cell and returns the cell's
// cached score. resolve builds each key once: the same string serves the
// lookup and, on a miss, the put.
func (c *trialCache) lookup(index int, side string) (key string, v float64, ok bool) {
	if c == nil {
		return "", 0, false
	}
	key = store.TrialKey(c.seed, c.dataset, index, side)
	v, ok = c.store.Get(key, c.fp)
	return key, v, ok
}

// put durably records one freshly measured score under its cell key.
func (c *trialCache) put(key string, score float64) error {
	if c == nil {
		return nil
	}
	if err := c.store.Put(key, c.fp, score); err != nil {
		return fmt.Errorf("varbench: trial store: %w", err)
	}
	return nil
}

// putFailure durably records a quarantined cell's attempt history under the
// failure/... key family. Best-effort: a store that cannot even record the
// failure does not escalate a quarantined trial into an aborted run — the
// in-memory TrialFailure still reaches the report.
func (c *trialCache) putFailure(index int, side string, rec failureRecord) {
	if c == nil {
		return
	}
	_ = c.store.PutJSON(store.FailureKey(c.seed, c.dataset, index, side), c.fp, rec)
}

// A guard bundles the experiment's per-trial fault handling: panic
// isolation, the per-trial deadline, the retry policy and the quarantine
// switch. sleep is the backoff pause, injectable in tests.
type guard struct {
	timeout  time.Duration
	retry    RetryPolicy // normalized: MaxAttempts ≥ 1
	failFast bool
	sleep    func(context.Context, time.Duration) error
}

// runRecovered executes one pipeline invocation, converting a panic into an
// ErrTrialPanic error so a panicking TrialFunc quarantines one trial instead
// of crashing the process. The panic value (not a stack trace, which would
// embed goroutine IDs and break deterministic failure reports) is preserved
// in the message.
func runRecovered(run TrialFunc, t Trial) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v = 0
			err = fmt.Errorf("%w: %v", ErrTrialPanic, r)
		}
	}()
	return run(t)
}

// attempt executes one pipeline invocation under the guard's deadline. With
// no deadline the trial runs inline. With one, it runs in a goroutine and
// the attempt fails with ErrTrialTimeout when the deadline passes first; the
// runner goroutine is abandoned (its buffered send cannot block) and its
// eventual result discarded — a TrialFunc that hangs forever leaks that
// goroutine, which is the price of bounding a pipeline that ignores
// deadlines.
func (g *guard) attempt(ctx context.Context, run TrialFunc, t Trial) (float64, error) {
	if g.timeout <= 0 {
		return runRecovered(run, t)
	}
	type result struct {
		v   float64
		err error
	}
	ch := make(chan result, 1)
	//lint:allow goroline(one-shot send into a buffered channel never blocks; the goroutine exits as soon as the trial returns, and is deliberately abandoned when the deadline or cancellation wins the select)
	go func() {
		v, err := runRecovered(run, t)
		ch <- result{v, err}
	}()
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		return 0, fmt.Errorf("%w after %v", ErrTrialTimeout, g.timeout)
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// isCancellation reports whether err is context-cancellation shaped —
// the pool shutting down rather than a trial fault.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// resolve serves one (trial, side) cell under the full resilience stack:
// cache-first, then up to MaxAttempts guarded pipeline runs (each followed
// by the durable store write, which shares the attempt budget — a flaky
// store is a retryable fault like a flaky trial). On terminal failure it
// either returns an error (fail-fast mode, or cancellation, which is never
// quarantined) or a TrialFailure recorded durably with its attempt history.
//
// A score is a measurement only when it is finite: a NaN or an infinity
// fails its attempt with ErrTrialFailed and is never stored, and one that a
// store already holds counts as a miss. So no non-finite score reaches the
// analysis, whose paired test would count its pair as a loss for A,
// whichever side returned it.
func (c *trialCache) resolve(ctx context.Context, g *guard, t Trial, side string, run TrialFunc, label string) (float64, *TrialFailure, error) {
	key, v, ok := c.lookup(t.Index, side)
	if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		return v, nil, nil
	}
	var history []attemptRecord
	for attempt := 1; ; attempt++ {
		v, err := g.attempt(ctx, run, t)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("%w: the pipeline returned the non-finite score %v", ErrTrialFailed, v)
		}
		if err == nil {
			err = c.put(key, v)
		}
		if err == nil {
			return v, nil, nil
		}
		if isCancellation(err) {
			return 0, nil, fmt.Errorf("varbench: %salgorithm %s run %d: collection canceled: %w", label, side, t.Index, err)
		}
		rec := attemptRecord{Attempt: attempt, Error: err.Error()}
		if attempt < g.retry.MaxAttempts && g.retry.retryable(err) {
			pause := g.retry.Backoff(t.Seed, attempt)
			rec.BackoffNS = int64(pause)
			history = append(history, rec)
			if serr := g.sleep(ctx, pause); serr != nil {
				return 0, nil, fmt.Errorf("varbench: %salgorithm %s run %d: collection canceled during retry backoff: %w", label, side, t.Index, serr)
			}
			continue
		}
		history = append(history, rec)
		if g.failFast {
			return 0, nil, wrapTrialErr(label, side, t.Index, err)
		}
		kind := failureKindOf(err)
		c.putFailure(t.Index, side, failureRecord{Kind: kind, Error: err.Error(), Attempts: history})
		return 0, &TrialFailure{
			Index:    t.Index,
			Side:     side,
			Kind:     kind,
			Err:      err.Error(),
			Attempts: attempt,
		}, nil
	}
}

// wrapTrialErr attaches the trial's identity to its terminal error. Errors
// already classified by a sentinel (timeout, panic) or originating in the
// store keep their chain; anything else — a plain pipeline error — gains
// the ErrTrialFailed sentinel so callers can classify without parsing.
func wrapTrialErr(label, side string, index int, err error) error {
	if errors.Is(err, ErrTrialTimeout) || errors.Is(err, ErrTrialPanic) || errors.Is(err, ErrTrialFailed) {
		return fmt.Errorf("varbench: %salgorithm %s run %d: %w", label, side, index, err)
	}
	return fmt.Errorf("varbench: %salgorithm %s run %d: %w: %w", label, side, index, ErrTrialFailed, err)
}

// A schedule collects the trials of one stream through collectN's pool, in
// rounds. A round hands its trial indices to the pool, whose workers claim
// them in increasing order and measure them in any order; commit then
// folds the completed prefix into the result in trial-index order. So the
// surviving scores, the failure list and the sequence of Progress events
// are the same at any Parallelism. Nothing waits at a batch boundary: a
// worker that finishes a trial claims the next one while slower trials run
// on. Trials are derived as their jobs start, so a round of N holds no N
// trials at once.
type schedule struct {
	e              *Experiment
	label, dataset string // the dataset's error prefix and name
	cache          *trialCache
	g              *guard
	runA, runB     TrialFunc // runB is nil for single-pipeline collection
	stream         *trialStream

	lo int // the index of the round's first trial, collectN's job 0

	mu    sync.Mutex
	early map[int]Trial // trials derived ahead of their job
	// Survivors, in trial-index order; failures likewise.
	outA, outB []float64
	failures   []TrialFailure
	committed  int             // trials committed so far: the next to commit
	ahead      map[int]outcome // trials measured ahead of the next to commit
	feeding    bool            // a worker is committing
}

// An outcome is one measured trial: its scores, or its quarantine record.
type outcome struct {
	a, b float64
	fail *TrialFailure
}

// newSchedule prepares the collection of up to n survivors of one dataset.
// runB nil collects a single pipeline, stored as side "A".
func (e *Experiment) newSchedule(dataset, label string, runA, runB TrialFunc, n int) *schedule {
	s := &schedule{
		e:       e,
		label:   label,
		dataset: dataset,
		cache:   e.trialCache(dataset),
		g:       e.guard(),
		runA:    runA,
		runB:    runB,
		stream:  e.trialStream(dataset),
		outA:    make([]float64, 0, n),
	}
	if runB != nil {
		s.outB = make([]float64, 0, n)
	}
	return s
}

// collect runs trials until n of them survive or limit trial indices are
// spent, and returns the number of indices spent. The first round runs
// trials 0..n−1; each later round runs the next indices, one per trial
// quarantined so far. A trial's seed depends on its index alone, so a
// make-up trial never moves another trial's seeds.
func (s *schedule) collect(ctx context.Context, n, limit int) (int, error) {
	used := 0
	for m := n; m > 0; m = min(n-len(s.outA), limit-used) {
		s.lo = used
		if err := collectN(ctx, m, s.e.Parallelism, s.measure); err != nil {
			return used, err
		}
		used += m
	}
	return used, nil
}

// measure is collectN's job k: it measures the round's trial k and commits
// it. In quarantine mode a failed side quarantines the whole pair, and the
// other side is skipped: half a pair is useless to a paired test.
func (s *schedule) measure(ctx context.Context, k int) error {
	t := s.trial(s.lo + k)
	var o outcome
	var err error
	o.a, o.fail, err = s.cache.resolve(ctx, s.g, t, "A", s.runA, s.label)
	if err == nil && o.fail == nil && s.runB != nil {
		o.b, o.fail, err = s.cache.resolve(ctx, s.g, t, "B", s.runB, s.label)
	}
	if err != nil {
		return err
	}
	s.commit(t.Index, o)
	return nil
}

// trial derives trial i. Jobs claim their indices in increasing order but
// may get here in any order, and the stream derives trials only in order:
// a trial derived for a later job's sake waits in early for its own job.
// Each worker holds at most one claimed job, so early holds fewer trials
// than there are workers.
func (s *schedule) trial(i int) Trial {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.early[i]; ok {
		delete(s.early, i)
		return t
	}
	for s.stream.next < i {
		if s.early == nil {
			s.early = make(map[int]Trial)
		}
		t := s.stream.trial()
		s.early[t.Index] = t
	}
	return s.stream.trial()
}

// commit folds trial i into the result once every earlier trial is in,
// reporting each folded trial through progress in index order. A trial
// that arrives early waits in ahead. The worker that commits keeps
// committing while the next trial is in, and calls progress outside the
// lock: a trial that completes meanwhile only waits in ahead, for that
// worker's next pass. Rounds run one after another and a round ends only
// when all its trials are in, so the next round starts at committed.
func (s *schedule) commit(i int, o outcome) {
	s.mu.Lock()
	if i != s.committed || s.feeding {
		if s.ahead == nil {
			s.ahead = make(map[int]outcome)
		}
		s.ahead[i] = o
		s.mu.Unlock()
		return
	}
	s.feeding = true
	for ok := true; ok; o, ok = s.ahead[s.committed] {
		delete(s.ahead, s.committed)
		if o.fail != nil {
			o.fail.Dataset = s.dataset
			s.failures = append(s.failures, *o.fail)
		} else {
			s.outA = append(s.outA, o.a)
			if s.outB != nil {
				s.outB = append(s.outB, o.b)
			}
		}
		s.committed++
		if s.e.Progress != nil {
			p := Progress{Dataset: s.dataset, Pairs: len(s.outA), MaxRuns: s.e.MaxRuns, Quarantined: len(s.failures)}
			s.mu.Unlock()
			s.e.Progress(p)
			s.mu.Lock()
		}
	}
	s.feeding = false
	s.mu.Unlock()
}

// collectN executes do(ctx, i) for i in [0, n) across a pool of workers
// that claim indices in increasing order, stopping at the first error or
// context cancellation. It is the engine behind trial collection, the
// concurrent datasets of a multi-dataset Run and the (source ×
// realization) fan-out of VarianceStudy.Run: every job writes only to its
// own pre-assigned slot, so any worker count produces identical results.
// One worker runs the jobs inline, with no goroutine. The ctx handed to do
// is canceled as soon as any job fails, so long-running jobs (a whole
// K-measure variance cell, not just one trial) can stop between their own
// steps instead of running to completion. The reported error is the
// lowest-index real failure: cancellation-shaped errors from siblings that
// were cut down by the pool's own cancel never win over the root cause, and
// when several jobs fail simultaneously the one with the smallest index is
// reported, deterministically, regardless of which goroutine lost the race.
func collectN(ctx context.Context, n, workers int, do func(ctx context.Context, i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("varbench: collection canceled: %w", err)
			}
			if err := do(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg   sync.WaitGroup
		next atomic.Int64 // the next unclaimed index
		mu   sync.Mutex
		// The lowest-index real failure wins the reported error. A
		// cancellation-shaped error is kept only as a fallback: it is
		// usually a sibling observing our own cancel (or the caller's), and
		// reporting it would mask the root cause — but if no real failure
		// and no canceled context explains the stop, it is still surfaced
		// rather than swallowed.
		errIdx    = -1
		firstErr  error
		cancelIdx = -1
		cancelErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if isCancellation(err) {
			if cancelIdx == -1 || i < cancelIdx {
				cancelIdx, cancelErr = i, err
			}
			return
		}
		if errIdx == -1 {
			cancel()
		}
		if errIdx == -1 || i < errIdx {
			errIdx, firstErr = i, err
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := do(ctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("varbench: collection canceled: %w", err)
	}
	if cancelErr != nil {
		// A job returned a cancellation-shaped error with no cancellation in
		// sight: a pipeline surfacing context.Canceled of its own accord.
		return cancelErr
	}
	return nil
}
