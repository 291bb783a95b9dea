package varbench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"varbench/internal/xrand"
	"varbench/store"
)

// renderText renders a Result with the default text renderer, failing the
// test on render errors.
func renderText(t *testing.T, r *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := (TextRenderer{}).Render(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	for attempt := 1; attempt <= 4; attempt++ {
		d1 := p.Backoff(99, attempt)
		d2 := p.Backoff(99, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		// Exponential envelope with jitter in [0.5, 1.5): attempt k waits
		// min(MaxDelay, Base·2^(k-1)) scaled by the jitter.
		base := 10 * time.Millisecond << (attempt - 1)
		if base > 50*time.Millisecond {
			base = 50 * time.Millisecond
		}
		lo, hi := base/2, base+base/2
		if d1 < lo || d1 >= hi {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, lo, hi)
		}
	}
	if a, b := p.Backoff(1, 1), p.Backoff(2, 1); a == b {
		t.Fatal("different seeds produced identical jitter — suspicious")
	}
}

func TestRetryPolicyDo(t *testing.T) {
	boom := errors.New("boom")
	t.Run("recovers", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}
		calls := 0
		err := p.Do(context.Background(), 1, func() error {
			calls++
			if calls < 3 {
				return boom
			}
			return nil
		})
		if err != nil || calls != 3 {
			t.Fatalf("err=%v calls=%d, want nil after 3", err, calls)
		}
	})
	t.Run("exhausts", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}
		calls := 0
		err := p.Do(context.Background(), 1, func() error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 2 {
			t.Fatalf("err=%v calls=%d, want boom after 2", err, calls)
		}
	})
	t.Run("cancellation is terminal", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
		calls := 0
		err := p.Do(context.Background(), 1, func() error { calls++; return context.Canceled })
		if !errors.Is(err, context.Canceled) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want canceled after 1 (never retried)", err, calls)
		}
	})
	t.Run("retryable filter", func(t *testing.T) {
		p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond,
			Retryable: func(err error) bool { return !errors.Is(err, boom) }}
		calls := 0
		err := p.Do(context.Background(), 1, func() error { calls++; return boom })
		if !errors.Is(err, boom) || calls != 1 {
			t.Fatalf("err=%v calls=%d, want boom after 1", err, calls)
		}
	})
}

// flaky builds a TrialFunc that fails the first fail attempts of every
// trial, then succeeds with a deterministic score. Attempt bookkeeping is
// mutable shared state, so it is guarded — the scores themselves stay a
// pure function of the trial.
func flaky(fail int, mean float64) TrialFunc {
	var mu sync.Mutex
	attempts := map[int]int{}
	return func(tr Trial) (float64, error) {
		mu.Lock()
		attempts[tr.Index]++
		a := attempts[tr.Index]
		mu.Unlock()
		if a <= fail {
			return 0, fmt.Errorf("transient fault (attempt %d)", a)
		}
		return mean + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	e := Experiment{
		ATrial:  flaky(2, 0.9),
		BTrial:  flaky(1, 0.7),
		Seed:    7,
		MaxRuns: 16,
		Retry:   RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 0 {
		t.Fatalf("%d trials quarantined, want 0 (retries should recover)", res.Quarantined)
	}
	clean := Experiment{
		ATrial: func(tr Trial) (float64, error) {
			return 0.9 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
		},
		BTrial: func(tr Trial) (float64, error) {
			return 0.7 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
		},
		Seed:    7,
		MaxRuns: 16,
	}
	want, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := renderText(t, res), renderText(t, want); got != exp {
		t.Fatalf("recovered run differs from clean run:\n--- recovered ---\n%s--- clean ---\n%s", got, exp)
	}
}

func TestRetryInsufficientBudgetFailsFast(t *testing.T) {
	// Two retries cannot beat three consecutive faults; with FailFast set
	// the run aborts with a classified error.
	e := Experiment{
		ATrial:   flaky(3, 0.9),
		BTrial:   flaky(0, 0.7),
		Seed:     7,
		MaxRuns:  8,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		FailFast: true,
	}
	_, err := e.Run(context.Background())
	if !errors.Is(err, ErrTrialFailed) {
		t.Fatalf("err = %v, want ErrTrialFailed", err)
	}
}

func TestTrialTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hang := func(tr Trial) (float64, error) {
		if tr.Index == 3 {
			<-release
		}
		return 0.5, nil
	}
	e := Experiment{
		ATrial:       hang,
		BTrial:       func(Trial) (float64, error) { return 0.4, nil },
		Seed:         1,
		MaxRuns:      8,
		TrialTimeout: 20 * time.Millisecond,
		FailFast:     true,
		EarlyStop:    EarlyStopOff,
	}
	_, err := e.Run(context.Background())
	if !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("err = %v, want ErrTrialTimeout", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	bomb := func(tr Trial) (float64, error) {
		if tr.Index == 2 {
			panic("kaboom")
		}
		return 0.5 + 0.01*float64(tr.Index%5), nil
	}
	steady := func(tr Trial) (float64, error) { return 0.4 + 0.01*float64(tr.Index%5), nil }

	t.Run("fail-fast", func(t *testing.T) {
		e := Experiment{ATrial: bomb, BTrial: steady, Seed: 1, MaxRuns: 8, EarlyStop: EarlyStopOff}
		_, err := e.Run(context.Background())
		if !errors.Is(err, ErrTrialPanic) {
			t.Fatalf("err = %v, want ErrTrialPanic", err)
		}
		if !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("err %q does not carry the panic value", err)
		}
	})
	t.Run("quarantine", func(t *testing.T) {
		e := Experiment{ATrial: bomb, BTrial: steady, Seed: 1, MaxRuns: 8,
			FailFast: false, Retry: RetryPolicy{MaxAttempts: 1}, EarlyStop: EarlyStopOff}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Quarantined != 1 || len(res.Datasets[0].Failures) != 1 {
			t.Fatalf("quarantined=%d failures=%d, want 1/1", res.Quarantined, len(res.Datasets[0].Failures))
		}
		f := res.Datasets[0].Failures[0]
		if f.Kind != FailurePanic || f.Index != 2 || f.Side != "A" {
			t.Fatalf("failure = %+v, want panic at trial 2 side A", f)
		}
		if res.Pairs != 7 {
			t.Fatalf("pairs = %d, want 7 (8 attempted − 1 quarantined)", res.Pairs)
		}
	})
}

// TestNonFiniteScoreFailsItsTrial: a pipeline's NaN or infinity is a
// failed attempt, not a score. A = 0.9 beats B = 0.5 on every trial, but B
// returns NaN on every third one. Counted as scores, those four pairs read
// as losses for A (P(A>B) = 0.667 over 12 pairs, MeanB NaN). Fail-fast
// aborts on the first; quarantine drops the four pairs, and a stored NaN is
// recomputed as a miss.
func TestNonFiniteScoreFailsItsTrial(t *testing.T) {
	scoreA := func(Trial) (float64, error) { return 0.9, nil }
	scoreB := func(bad float64) TrialFunc {
		return func(tr Trial) (float64, error) {
			if tr.Index%3 == 0 {
				return bad, nil
			}
			return 0.5, nil
		}
	}
	spec := Experiment{ATrial: scoreA, BTrial: scoreB(math.NaN()), Seed: 4, MaxRuns: 12, EarlyStop: EarlyStopOff}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := spec
		e.BTrial = scoreB(bad)
		_, err := e.Run(context.Background())
		if !errors.Is(err, ErrTrialFailed) || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Errorf("fail-fast run with a %v score: err = %v, want ErrTrialFailed naming the score", bad, err)
		}
		single := Experiment{ATrial: scoreB(bad), Seed: 4, MaxRuns: 12}
		if _, err := single.Collect(context.Background()); !errors.Is(err, ErrTrialFailed) {
			t.Errorf("fail-fast Collect with a %v score: err = %v, want ErrTrialFailed", bad, err)
		}
	}

	quarantine := spec
	quarantine.Retry = RetryPolicy{MaxAttempts: 1}
	res, err := quarantine.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Datasets[0].Comparison
	if res.Quarantined != 4 || res.Pairs != 8 || c.PAB != 1 || c.MeanB != 0.5 {
		t.Fatalf("quarantined %d, pairs %d, P(A>B) %v, MeanB %v; want 4, 8, 1, 0.5",
			res.Quarantined, res.Pairs, c.PAB, c.MeanB)
	}
	for _, f := range res.Datasets[0].Failures {
		if f.Side != "B" || f.Index%3 != 0 || f.Kind != FailureError || !strings.Contains(f.Err, "NaN") {
			t.Errorf("failure %+v, want B's NaN at a multiple of 3", f)
		}
	}

	// A store that holds a NaN serves it as a miss: the cell is measured
	// again, stored, and the run matches a storeless one.
	st := store.NewMem()
	stored := spec
	stored.BTrial = scoreB(0.5)
	stored.Store = st
	tc := stored.trialCache("")
	for i := 0; i < 12; i += 3 {
		if err := st.Put(store.TrialKey(tc.seed, tc.dataset, i, "B"), tc.fp, math.NaN()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := stored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stored.Store = nil
	want, err := stored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderText(t, got), renderText(t, want); g != w {
		t.Fatalf("run over a store holding NaN cells:\n%s\nwant the storeless run:\n%s", g, w)
	}
	for i := 0; i < 12; i += 3 {
		if v, ok := st.Get(store.TrialKey(tc.seed, tc.dataset, i, "B"), tc.fp); !ok || v != 0.5 {
			t.Errorf("cell %d after the run: %v, %v; want the recomputed 0.5", i, v, ok)
		}
	}
}

func TestQuarantineParallelismInvariance(t *testing.T) {
	// Trials 1 and 5 always fail on side B; quarantine must place the same
	// failures and survivors at any worker count.
	broken := func(tr Trial) (float64, error) {
		if tr.Index == 1 || tr.Index == 5 {
			return 0, errors.New("permanent fault")
		}
		return 0.4 + 0.01*float64(tr.Index%5), nil
	}
	spec := Experiment{
		ATrial:    func(tr Trial) (float64, error) { return 0.5 + 0.01*float64(tr.Index%5), nil },
		BTrial:    broken,
		Seed:      3,
		MaxRuns:   12,
		FailFast:  false,
		Retry:     RetryPolicy{MaxAttempts: 1},
		EarlyStop: EarlyStopOff,
	}
	serial := spec
	serial.Parallelism = 1
	parallel := spec
	parallel.Parallelism = 4
	r1, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r4, err := parallel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Quarantined != 2 || r4.Quarantined != 2 {
		t.Fatalf("quarantined: p=1 %d, p=4 %d; want 2", r1.Quarantined, r4.Quarantined)
	}
	if got, exp := renderText(t, r4), renderText(t, r1); got != exp {
		t.Fatalf("quarantined run differs across parallelism:\n--- p=4 ---\n%s--- p=1 ---\n%s", got, exp)
	}
}

// chaosTrial builds a TrialFunc whose attempts fail with seeded probability:
// 10% plain error, 5% panic, 5% hang (until release closes). Decisions
// derive only from the trial seed, the side and the per-cell attempt
// number, so every run of the same spec sees the same fault sequence.
func chaosTrial(side string, mean float64, release <-chan struct{}) TrialFunc {
	var mu sync.Mutex
	attempts := map[int]int{}
	return func(tr Trial) (float64, error) {
		mu.Lock()
		attempts[tr.Index]++
		a := attempts[tr.Index]
		mu.Unlock()
		draw := xrand.New(tr.Seed).Split(fmt.Sprintf("chaos/%s/attempt/%d", side, a)).Float64()
		switch {
		case draw < 0.10:
			return 0, fmt.Errorf("chaos error (attempt %d)", a)
		case draw < 0.15:
			panic(fmt.Sprintf("chaos panic (attempt %d)", a))
		case draw < 0.20:
			<-release
			return 0, errors.New("chaos hang released")
		}
		return mean + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
	}
}

// TestChaosRunMatchesCleanRun is the tentpole's end-to-end proof: a pipeline
// where 20% of attempts fail, panic or hang produces — through timeouts,
// retries and panic isolation — the byte-identical report of the clean
// pipeline, at parallelism 1 and 4.
func TestChaosRunMatchesCleanRun(t *testing.T) {
	clean := Experiment{
		ATrial: func(tr Trial) (float64, error) {
			return 0.9 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
		},
		BTrial: func(tr Trial) (float64, error) {
			return 0.7 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
		},
		Seed:      11,
		MaxRuns:   24,
		EarlyStop: EarlyStopOff,
	}
	want, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantText := renderText(t, want)

	for _, par := range []int{1, 4} {
		release := make(chan struct{})
		e := Experiment{
			ATrial:       chaosTrial("A", 0.9, release),
			BTrial:       chaosTrial("B", 0.7, release),
			Seed:         11,
			MaxRuns:      24,
			EarlyStop:    EarlyStopOff,
			Parallelism:  par,
			TrialTimeout: 50 * time.Millisecond,
			Retry:        RetryPolicy{MaxAttempts: 8, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		}
		res, err := e.Run(context.Background())
		close(release)
		if err != nil {
			t.Fatalf("p=%d: %v", par, err)
		}
		if res.Quarantined != 0 {
			t.Fatalf("p=%d: %d trials quarantined, want 0 (retry budget should recover every cell):\n%v",
				par, res.Quarantined, res.Datasets[0].Failures)
		}
		if got := renderText(t, res); got != wantText {
			t.Fatalf("p=%d: chaos run differs from clean run:\n--- chaos ---\n%s--- clean ---\n%s", par, got, wantText)
		}
	}
}

// TestFaultInjectedStoreResumesToClean drives collection through a store
// whose early Puts fail, quarantining trials; re-running over the same
// directory with a healthy store recomputes exactly the quarantined cells
// and converges to the clean result.
func TestFaultInjectedStoreResumesToClean(t *testing.T) {
	a := func(tr Trial) (float64, error) {
		return 0.9 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
	}
	b := func(tr Trial) (float64, error) {
		return 0.7 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
	}
	spec := Experiment{ATrial: a, BTrial: b, Seed: 5, MaxRuns: 12, EarlyStop: EarlyStopOff}

	want, err := spec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantText := renderText(t, want)

	dir := t.TempDir()
	faulty, err := store.OpenDSN("faultinject:put@4-6:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	degradedSpec := spec
	degradedSpec.Store = faulty
	degradedSpec.FailFast = false
	degradedSpec.Retry = RetryPolicy{MaxAttempts: 1}
	degraded, err := degradedSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.Close(); err != nil {
		t.Fatal(err)
	}
	if degraded.Quarantined == 0 {
		t.Fatal("fault-injected store quarantined nothing — schedule did not engage")
	}
	// The failure records were written durably alongside the trials.
	healthy, err := store.OpenSegLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := healthy.CountPrefix("failure/"); n == 0 {
		t.Fatal("no failure/ records in the store after a degraded run")
	}
	resumedSpec := spec
	resumedSpec.Store = healthy
	resumed, err := resumedSpec.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.Quarantined != 0 {
		t.Fatalf("resume still quarantined %d trials", resumed.Quarantined)
	}
	if got := renderText(t, resumed); got != wantText {
		t.Fatalf("resumed run differs from clean run:\n--- resumed ---\n%s--- clean ---\n%s", got, wantText)
	}
}

// TestCollectNSimultaneousFailures pins collectN's tie-break: when many
// jobs fail at once, the reported error is the lowest-index one, not
// whichever goroutine lost the race.
func TestCollectNSimultaneousFailures(t *testing.T) {
	const n = 8
	for trial := 0; trial < 20; trial++ {
		var barrier sync.WaitGroup
		barrier.Add(n)
		err := collectN(context.Background(), n, n, func(ctx context.Context, i int) error {
			// Every job arrives before any fails, so all n failures are
			// simultaneous by construction.
			barrier.Done()
			barrier.Wait()
			return fmt.Errorf("job %d failed", i)
		})
		if err == nil || err.Error() != "job 0 failed" {
			t.Fatalf("trial %d: err = %v, want the lowest-index failure (job 0)", trial, err)
		}
	}
}

func TestVarianceStudyQuarantine(t *testing.T) {
	// A seeded ~8% of measures fail permanently, so some realizations drop
	// while enough survive per row; the report must carry the quarantine and
	// still analyze.
	study := VarianceStudy{
		Pipeline: func(tr Trial) (float64, error) {
			if xrand.New(tr.Seed).Split("fault").Float64() < 0.08 {
				return 0, errors.New("permanent fault")
			}
			return 0.8 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
		},
		Sources:      []Source{VarInit},
		K:            4,
		Realizations: 5,
		Seed:         9,
		FailFast:     false,
		Retry:        RetryPolicy{MaxAttempts: 1},
	}
	rep, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("no failures reported despite a permanently failing trial")
	}
	for _, f := range rep.Failures {
		if f.Realization == 0 {
			t.Fatalf("failure %+v: Realization not set (want 1-based)", f)
		}
		if f.Dataset == "" {
			t.Fatalf("failure %+v: row label not set", f)
		}
	}
	var buf bytes.Buffer
	if err := (VarianceTextRenderer{}).Render(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quarantined:") {
		t.Fatalf("text report lacks the quarantine summary:\n%s", buf.String())
	}
}

func TestVarianceStudyTooFewSurvivors(t *testing.T) {
	study := VarianceStudy{
		Pipeline: func(tr Trial) (float64, error) {
			return 0, errors.New("always broken")
		},
		Sources:      []Source{VarInit},
		K:            3,
		Realizations: 3,
		Seed:         9,
		FailFast:     false,
		Retry:        RetryPolicy{MaxAttempts: 1},
	}
	_, err := study.Run(context.Background())
	if err == nil || !errors.Is(err, ErrTrialFailed) {
		t.Fatalf("err = %v, want ErrTrialFailed (too few surviving realizations)", err)
	}
}

// TestFailFastInference: one rule decides whether a trial that exhausts
// its attempts aborts the run or is quarantined. Experiment.withDefaults
// resolves it, and a VarianceStudy inherits it through the Experiment of
// each of its cells.
func TestFailFastInference(t *testing.T) {
	cases := []struct {
		name     string
		timeout  time.Duration
		retry    RetryPolicy
		failFast bool
		want     bool // effective FailFast
	}{
		{"default", 0, RetryPolicy{}, false, true},
		{"retry opts in", 0, RetryPolicy{MaxAttempts: 3}, false, false},
		{"timeout opts in", time.Minute, RetryPolicy{}, false, false},
		{"fail-fast wins over retry", 0, RetryPolicy{MaxAttempts: 3}, true, true},
		{"quarantine without retrying", 0, RetryPolicy{MaxAttempts: 1}, false, false},
	}
	for _, tc := range cases {
		e := Experiment{TrialTimeout: tc.timeout, Retry: tc.retry, FailFast: tc.failFast}
		cfg, err := e.withDefaults()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cfg.FailFast != tc.want {
			t.Errorf("%s: FailFast = %v, want %v", tc.name, cfg.FailFast, tc.want)
		}

		// The first measure the study runs fails, and so does every measure
		// that shares its trial seed: trial 0 of that realization, in every
		// row. The other realizations survive.
		var once sync.Once
		var bad uint64
		study := VarianceStudy{
			Pipeline: func(tr Trial) (float64, error) {
				once.Do(func() { bad = tr.Seed })
				if tr.Seed == bad {
					return 0, errors.New("bad seed")
				}
				return 0.8 + 0.05*xrand.New(tr.Seed^0x9E3779B9).NormFloat64(), nil
			},
			Sources:      []Source{VarInit, VarOrder},
			K:            3,
			Realizations: 3,
			Seed:         9,
			Parallelism:  1,
			TrialTimeout: tc.timeout,
			Retry:        tc.retry,
			FailFast:     tc.failFast,
		}
		rep, err := study.Run(context.Background())
		if tc.want && !errors.Is(err, ErrTrialFailed) {
			t.Errorf("%s: study err = %v, want an abort with ErrTrialFailed", tc.name, err)
		}
		if !tc.want && (err != nil || len(rep.Failures) == 0) {
			t.Errorf("%s: study err = %v, want a report with the bad seed's measures quarantined", tc.name, err)
		}
	}
}
