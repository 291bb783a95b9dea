package varbench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"varbench/store"
)

// The collection engine: a bounded worker pool executing one batch of
// trials at a time, writing each score to its trial's slot. Batches are
// streamed from a lazy trialStream whose seeds depend only on (Seed,
// dataset, trial index), fixed before any trial is dispatched, so workers
// never share mutable state beyond disjoint slice elements and the output
// is identical at any parallelism. Multi-dataset experiments run one such
// pool per dataset concurrently. Cancellation is observed between runs; a
// run already started is allowed to finish.
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
func (c *trialCache) resolve(ctx context.Context, g *guard, t Trial, side string, run TrialFunc, label string) (float64, *TrialFailure, error) {
	key, v, ok := c.lookup(t.Index, side)
	if ok {
		return v, nil, nil
	}
	var history []attemptRecord
	for attempt := 1; ; attempt++ {
		v, err := g.attempt(ctx, run, t)
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

// collectPairs measures one batch of paired trials: trial i feeds both
// pipelines, outA[i] and outB[i] receive the scores. label names the
// dataset in errors ("" for single-dataset experiments). In quarantine mode
// a failed side quarantines the whole pair (the other side is skipped —
// half a pair is useless to a paired test) into fails[i]; every slot is
// written only by its own trial, so failure placement is deterministic at
// any parallelism.
func collectPairs(ctx context.Context, label string, cache *trialCache, g *guard, runA, runB TrialFunc, trials []Trial, outA, outB []float64, fails []*TrialFailure, workers int) error {
	return collectN(ctx, len(trials), workers, func(cctx context.Context, i int) error {
		t := trials[i]
		a, fa, err := cache.resolve(cctx, g, t, "A", runA, label)
		if err != nil {
			return err
		}
		if fa != nil {
			fails[i] = fa
			return nil
		}
		b, fb, err := cache.resolve(cctx, g, t, "B", runB, label)
		if err != nil {
			return err
		}
		if fb != nil {
			fails[i] = fb
			return nil
		}
		outA[i], outB[i] = a, b
		return nil
	})
}

// collectRuns measures a single pipeline once per trial. Stored cells use
// side "A", so a study's single-pipeline measurements and an experiment's
// A-side trials address the same cache cells.
func collectRuns(ctx context.Context, cache *trialCache, g *guard, run TrialFunc, trials []Trial, out []float64, fails []*TrialFailure, workers int) error {
	return collectN(ctx, len(trials), workers, func(cctx context.Context, i int) error {
		t := trials[i]
		v, f, err := cache.resolve(cctx, g, t, "A", run, "")
		if err != nil {
			return err
		}
		if f != nil {
			fails[i] = f
			return nil
		}
		out[i] = v
		return nil
	})
}

// collectN executes do(ctx, i) for i in [0, n) across a worker pool,
// stopping at the first error or context cancellation. It is the engine
// behind both trial collection and the (source × realization) fan-out of
// VarianceStudy.Run: every job writes only to its own pre-assigned slot, so
// any worker count produces identical results. The ctx handed to do is
// canceled as soon as any job fails, so long-running jobs (a whole
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
		wg sync.WaitGroup
		mu sync.Mutex
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
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := do(ctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
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
