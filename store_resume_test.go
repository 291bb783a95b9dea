package varbench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"varbench/internal/xrand"
	"varbench/store"
)

// A cheap, pure, seed-sensitive stand-in for a benchmark pipeline: the
// score depends on the trial's per-source seeds, so any seed drift between
// a cached and a recomputed trial changes the report.
func storeTestScore(t Trial, offset float64) float64 {
	return offset +
		float64(t.SourceSeed(VarInit)%1009)/1009 +
		float64(t.SourceSeed(VarOrder)%997)/99700
}

// countingPipeline wraps the test pipeline with an invocation counter and,
// optionally, a cancellation trigger: the context is canceled as soon as
// the pipeline has been entered cancelAt times, simulating SIGINT landing
// mid-collection (the trial itself completes — started runs finish and are
// recorded).
func countingPipeline(calls *atomic.Int64, offset float64, cancelAt int64, cancel context.CancelFunc) TrialFunc {
	return func(t Trial) (float64, error) {
		if n := calls.Add(1); cancel != nil && n == cancelAt {
			cancel()
		}
		return storeTestScore(t, offset), nil
	}
}

// analysisCounter is a store.Backend decorator that counts analysis reads
// and writes: GetJSON and PutJSON calls on analysis/ keys, which stores
// filled by older builds hold. An experiment recounts its analysis from
// the trials and must make none. The counters are atomic because a
// multi-dataset run collects from one goroutine per dataset.
type analysisCounter struct {
	store.Backend
	gets, puts atomic.Int64
}

func (c *analysisCounter) GetJSON(key, fp string, v any) (bool, error) {
	if strings.HasPrefix(key, "analysis/") {
		c.gets.Add(1)
	}
	return c.Backend.GetJSON(key, fp, v)
}

func (c *analysisCounter) PutJSON(key, fp string, v any) error {
	if strings.HasPrefix(key, "analysis/") {
		c.puts.Add(1)
	}
	return c.Backend.PutJSON(key, fp, v)
}

// check fails the test unless the counts since the last check are gets
// and puts, then resets them.
func (c *analysisCounter) check(t *testing.T, what string, gets, puts int64) {
	t.Helper()
	if g, p := c.gets.Swap(0), c.puts.Swap(0); g != gets || p != puts {
		t.Errorf("%s: %d analysis GetJSON and %d PutJSON, want %d and %d", what, g, p, gets, puts)
	}
}

// TestVarianceStudyStoreResume is the acceptance criterion: a study
// interrupted at an arbitrary point and re-run with the same Store produces
// a byte-identical VarianceText report to an uninterrupted run, at
// Parallelism 1 and 4, with the resumed run invoking the pipeline only for
// the missing cells. The store is a seglog, so the interruption is a real
// process-style boundary: Close drains the group commit and a fresh
// OpenSegLog replays the segments.
func TestVarianceStudyStoreResume(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			study := func(p TrialFunc, st store.Backend) VarianceStudy {
				return VarianceStudy{
					Pipeline:     p,
					Sources:      []Source{VarInit, VarOrder},
					K:            3,
					Realizations: 2,
					Seed:         11,
					Parallelism:  par,
					Store:        st,
					PipelineID:   "store-resume-test",
				}
			}
			render := func(rep *VarianceReport) string {
				var buf bytes.Buffer
				if err := rep.Render(&buf, VarianceTextRenderer{Curves: true}); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			const total = 3 * 2 * 3 // (2 sources + joint) × realizations × K

			// Golden: uninterrupted, storeless.
			var goldenCalls atomic.Int64
			rep, err := study(countingPipeline(&goldenCalls, 0.2, 0, nil), nil).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			golden := render(rep)
			if goldenCalls.Load() != total {
				t.Fatalf("golden run made %d calls, want %d", goldenCalls.Load(), total)
			}

			// Interrupted: cancel fires from inside the 5th pipeline call.
			dir := t.TempDir()
			st, err := store.OpenSegLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			_, err = study(countingPipeline(&calls, 0.2, 5, cancel), st).Run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v", err)
			}
			st.Close() // the "process died" boundary

			// Resume: only the cells missing from the store may run.
			st2, err := store.OpenSegLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			recorded := st2.Len()
			if recorded < 5 {
				t.Fatalf("interrupted run recorded %d trials, want ≥ 5 (completed calls are durable)", recorded)
			}
			if recorded >= total {
				t.Fatalf("interrupted run recorded %d trials, want < %d (it was canceled)", recorded, total)
			}
			var resumeCalls atomic.Int64
			rep2, err := study(countingPipeline(&resumeCalls, 0.2, 0, nil), st2).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := render(rep2); got != golden {
				t.Errorf("resumed report differs from uninterrupted golden:\n%s\n--- golden ---\n%s", got, golden)
			}
			if got, want := resumeCalls.Load(), int64(total-recorded); got != want {
				t.Errorf("resumed run made %d pipeline calls, want %d (total %d - %d cached)",
					got, want, total, recorded)
			}

			// Third run: everything cached, zero pipeline invocations.
			var thirdCalls atomic.Int64
			rep3, err := study(countingPipeline(&thirdCalls, 0.2, 0, nil), st2).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if thirdCalls.Load() != 0 {
				t.Errorf("fully cached run made %d pipeline calls, want 0", thirdCalls.Load())
			}
			if got := render(rep3); got != golden {
				t.Errorf("fully cached report differs from golden")
			}
		})
	}
}

// TestExperimentRunStoreResume: the paired-collection counterpart — an
// interrupted Experiment.Run resumes from the store to a byte-identical
// report, recomputing only missing (trial, side) cells, and no run reads
// or writes an analysis record.
func TestExperimentRunStoreResume(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", par), func(t *testing.T) {
			const maxRuns = 12
			exp := func(a, b TrialFunc, st store.Backend) Experiment {
				return Experiment{
					ATrial:      a,
					BTrial:      b,
					Seed:        5,
					MaxRuns:     maxRuns,
					EarlyStop:   EarlyStopOff,
					Bootstrap:   50,
					Parallelism: par,
					Store:       st,
					PipelineID:  "exp-resume-test",
				}
			}
			render := func(res *Result) string {
				var buf bytes.Buffer
				if err := res.Render(&buf, TextRenderer{Scores: true}); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}

			var goldenCalls atomic.Int64
			gA := countingPipeline(&goldenCalls, 0.3, 0, nil)
			gB := countingPipeline(&goldenCalls, 0.1, 0, nil)
			res, err := exp(gA, gB, nil).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			golden := render(res)
			if goldenCalls.Load() != 2*maxRuns {
				t.Fatalf("golden run made %d calls, want %d", goldenCalls.Load(), 2*maxRuns)
			}

			dir := t.TempDir()
			st, err := store.OpenSegLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			iA := countingPipeline(&calls, 0.3, 7, cancel)
			iB := countingPipeline(&calls, 0.1, 7, cancel)
			counted := &analysisCounter{Backend: st}
			if _, err = exp(iA, iB, counted).Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v", err)
			}
			counted.check(t, "interrupted run", 0, 0)
			st.Close()

			st2, err := store.OpenSegLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			recorded := st2.CountPrefix("trial/")
			if recorded < 7 || recorded >= 2*maxRuns {
				t.Fatalf("interrupted run recorded %d cells, want in [7, %d)", recorded, 2*maxRuns)
			}
			var resumeCalls atomic.Int64
			rA := countingPipeline(&resumeCalls, 0.3, 0, nil)
			rB := countingPipeline(&resumeCalls, 0.1, 0, nil)
			counted = &analysisCounter{Backend: st2}
			res2, err := exp(rA, rB, counted).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			counted.check(t, "resumed run", 0, 0)
			if got := render(res2); got != golden {
				t.Errorf("resumed report differs from golden:\n%s\n--- golden ---\n%s", got, golden)
			}
			if got, want := resumeCalls.Load(), int64(2*maxRuns-recorded); got != want {
				t.Errorf("resumed run made %d calls, want %d", got, want)
			}

			// A rerun cancelled while it replays the cached trials writes
			// nothing either.
			replayCtx, cancelReplay := context.WithCancel(context.Background())
			defer cancelReplay()
			replay := exp(rA, rB, counted)
			replay.Progress = func(Progress) { cancelReplay() }
			if _, err := replay.Run(replayCtx); !errors.Is(err, context.Canceled) {
				t.Fatalf("rerun cancelled mid-replay: want context.Canceled, got %v", err)
			}
			counted.check(t, "rerun cancelled mid-replay", 0, 0)
		})
	}
}

// TestVarianceStudyCrossStudySharing: a second study probing a subset of
// the first study's sources — at the same Seed, K and Realizations — is
// served entirely from the shared store. Its single-source row has the same
// varied set and realization roots as the first study's row for that
// source, and so does its joint row (joint over one source ≡ that source's
// row), so not one pipeline call is needed.
func TestVarianceStudyCrossStudySharing(t *testing.T) {
	st, err := store.OpenSegLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := VarianceStudy{
		K:            3,
		Realizations: 2,
		Seed:         23,
		Parallelism:  2,
		Store:        st,
		PipelineID:   "shared",
	}

	var calls1 atomic.Int64
	s1 := base
	s1.Pipeline = countingPipeline(&calls1, 0, 0, nil)
	s1.Sources = []Source{VarInit, VarOrder}
	rep1, err := s1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 3*2*3 {
		t.Fatalf("first study made %d calls, want 18", calls1.Load())
	}

	var calls2 atomic.Int64
	s2 := base
	s2.Pipeline = countingPipeline(&calls2, 0, 0, nil)
	s2.Sources = []Source{VarInit}
	rep2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Errorf("subset study made %d pipeline calls, want 0 (every cell shared)", calls2.Load())
	}
	if rep1.Sources[0].Std != rep2.Sources[0].Std || rep1.Sources[0].Mean != rep2.Sources[0].Mean {
		t.Errorf("shared source row diverged: %+v vs %+v", rep1.Sources[0], rep2.Sources[0])
	}

	// Source order must not matter: the fingerprint canonicalizes the
	// varied set, so {order, init} is the same study as {init, order}.
	var calls3 atomic.Int64
	s3 := base
	s3.Pipeline = countingPipeline(&calls3, 0, 0, nil)
	s3.Sources = []Source{VarOrder, VarInit}
	if _, err := s3.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls3.Load() != 0 {
		t.Errorf("reordered-sources study made %d pipeline calls, want 0", calls3.Load())
	}

	// A superset study reuses the recorded per-source rows but must
	// collect its new source row and its joint row fresh: the joint
	// varied set {init, order, dropout} was never recorded, and serving a
	// different combination would be wrong, not thrifty.
	var calls4 atomic.Int64
	s4 := base
	s4.Pipeline = countingPipeline(&calls4, 0, 0, nil)
	s4.Sources = []Source{VarInit, VarOrder, VarDropout}
	if _, err := s4.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 2 * 3); calls4.Load() != want { // 2 fresh rows × R × K
		t.Errorf("superset study made %d pipeline calls, want %d (dropout + joint rows only)",
			calls4.Load(), want)
	}
}

// TestStoreFingerprintInvalidation: records are only served to the spec
// that wrote them — a different PipelineID or varied-source set recomputes
// from scratch instead of silently reusing stale scores — and an
// experiment reads and writes no analysis record.
func TestStoreFingerprintInvalidation(t *testing.T) {
	st, err := store.OpenSegLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	collect := func(id string, sources []Source, calls *atomic.Int64) []float64 {
		t.Helper()
		e := Experiment{
			ATrial:     countingPipeline(calls, 0, 0, nil),
			Sources:    sources,
			Seed:       9,
			MaxRuns:    4,
			Store:      st,
			PipelineID: id,
		}
		out, err := e.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	var c1, c2, c3, c4 atomic.Int64
	first := collect("pipeline-v1", []Source{VarInit}, &c1)
	collect("pipeline-v2", []Source{VarInit}, &c2)
	collect("pipeline-v1", []Source{VarInit, VarOrder}, &c3)
	again := collect("pipeline-v1", []Source{VarInit}, &c4)
	if c1.Load() != 4 || c2.Load() != 4 || c3.Load() != 4 {
		t.Errorf("changed specs must recompute: calls = %d, %d, %d (want 4 each)",
			c1.Load(), c2.Load(), c3.Load())
	}
	if c4.Load() != 0 {
		t.Errorf("unchanged spec must be fully cached, made %d calls", c4.Load())
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("cached score %d = %v, want %v", i, again[i], first[i])
		}
	}

	// An EarlyStopAuto experiment of the same spec reuses the A cells
	// Collect recorded, and counts its analysis from the pairs.
	counted := &analysisCounter{Backend: st}
	var cA, cB atomic.Int64
	auto := Experiment{
		ATrial:     countingPipeline(&cA, 0, 0, nil),
		BTrial:     countingPipeline(&cB, 0.1, 0, nil),
		Sources:    []Source{VarInit},
		Seed:       9,
		MaxRuns:    4,
		Store:      counted,
		PipelineID: "pipeline-v1",
	}
	if _, err := auto.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cA.Load() != 0 || cB.Load() != 4 {
		t.Errorf("experiment made %d A and %d B calls, want 0 and 4", cA.Load(), cB.Load())
	}
	counted.check(t, "EarlyStopAuto run", 0, 0)
}

// TestMultiDatasetStoreResume: per-dataset keys keep concurrent dataset
// collections from colliding in the store, and a second run is fully
// cached with an identical report.
func TestMultiDatasetStoreResume(t *testing.T) {
	sl, err := store.OpenSegLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	st := &analysisCounter{Backend: sl}
	build := func(calls *atomic.Int64) Experiment {
		return Experiment{
			Datasets: []Dataset{
				{Name: "mnist", ATrial: countingPipeline(calls, 0.3, 0, nil), BTrial: countingPipeline(calls, 0.1, 0, nil)},
				{Name: "cifar", ATrial: countingPipeline(calls, 0.4, 0, nil), BTrial: countingPipeline(calls, 0.2, 0, nil)},
			},
			Seed:       13,
			MaxRuns:    6,
			EarlyStop:  EarlyStopOff,
			Bootstrap:  50,
			Store:      st,
			PipelineID: "multi",
		}
	}
	render := func(r *Result) string {
		var buf bytes.Buffer
		if err := r.Render(&buf, TextRenderer{Scores: true}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	var calls1, calls2 atomic.Int64
	res1, err := build(&calls1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls1.Load() != 2*2*6 {
		t.Fatalf("first run made %d calls, want 24", calls1.Load())
	}
	st.check(t, "first run", 0, 0)
	res2, err := build(&calls2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Errorf("second run made %d calls, want 0", calls2.Load())
	}
	st.check(t, "second run", 0, 0)
	if render(res1) != render(res2) {
		t.Errorf("cached multi-dataset report differs:\n%s\n---\n%s", render(res1), render(res2))
	}
}

// normalSide is a pipeline scoring Normal(mean, 0.02), drawn from the
// trial seed's label stream.
func normalSide(label string, mean float64) TrialFunc {
	return func(t Trial) (float64, error) {
		return xrand.New(t.Seed).Split(label).Normal(mean, 0.02), nil
	}
}

// faultInject wraps inner in a FaultInject backend running schedule.
func faultInject(t *testing.T, inner store.Backend, schedule string) store.Backend {
	t.Helper()
	rules, err := store.ParseFaultSchedule(schedule)
	if err != nil {
		t.Fatal(err)
	}
	return store.NewFaultInject(inner, rules)
}

// TestResumedOffRunReportsFedPairs: an EarlyStopOff rerun that quarantines
// a pair reports the pairs it fed, not the 16 the first run stored. The
// rerun loses one cache read (get@9), recomputes that cell, fails to store
// it (put@1) and quarantines the pair. Its report must describe its 15
// pairs and equal the report of the same rerun over the trials alone.
func TestResumedOffRunReportsFedPairs(t *testing.T) {
	exp := Experiment{
		ATrial:      normalSide("a", 0.76),
		BTrial:      normalSide("b", 0.75),
		Seed:        3,
		MaxRuns:     16,
		EarlyStop:   EarlyStopOff,
		Bootstrap:   200,
		Parallelism: 1,
		Retry:       RetryPolicy{MaxAttempts: 1},
	}
	sl, err := store.OpenSegLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()
	// A clean run stores its trials and nothing else; trialsOnly is a
	// second store the same run filled.
	trialsOnly := store.NewMem()
	for _, st := range []store.Backend{sl, trialsOnly} {
		clean := exp
		clean.Store = st
		if _, err := clean.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	rerun := func(inner store.Backend) *Result {
		t.Helper()
		e := exp
		e.Store = faultInject(t, inner, "get@9;put@1")
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := rerun(sl)
	if res.Pairs != 15 || res.Quarantined != 1 || res.Comparison.N != 15 {
		t.Fatalf("rerun reports %d pairs, %d quarantined and Comparison.N %d, want 15, 1 and 15",
			res.Pairs, res.Quarantined, res.Comparison.N)
	}
	if got, want := renderText(t, res), renderText(t, rerun(trialsOnly)); got != want {
		t.Errorf("rerun over the full store differs from the rerun over the trials alone:\n%s--- trials only ---\n%s", got, want)
	}
}

// TestResumedAutoRunMatchesFreshRun: an EarlyStopAuto rerun over a store
// that a degraded run filled reaches the verdict of a fresh run. The first
// run quarantines one of 24 pairs and stores the trials of the 23 that
// survived, and no analysis; the rerun's budget is those 23 pairs. The
// rerun retries the quarantined trial and feeds trials 0–22, not the 23
// survivors of trials 0–23, and must report what a fresh run at that
// budget reports (n 23, max-runs).
func TestResumedAutoRunMatchesFreshRun(t *testing.T) {
	for _, seed := range []uint64{46, 57, 70} {
		for _, schedule := range []string{"put@1", "put@3"} {
			t.Run(fmt.Sprintf("seed-%d-%s", seed, schedule), func(t *testing.T) {
				exp := Experiment{
					ATrial:      normalSide("a", 0.78),
					BTrial:      normalSide("b", 0.75),
					Seed:        seed,
					MaxRuns:     24,
					Bootstrap:   200,
					Parallelism: 1,
					Retry:       RetryPolicy{MaxAttempts: 1},
				}
				mem := store.NewMem()
				degraded := exp
				degraded.Store = faultInject(t, mem, schedule)
				first, err := degraded.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if first.Quarantined != 1 || first.Pairs != 23 {
					t.Fatalf("degraded run: %d pairs, %d quarantined, want 23 and 1", first.Pairs, first.Quarantined)
				}
				if n := mem.CountPrefix("analysis/"); n != 0 {
					t.Fatalf("degraded run stored %d analysis records, want none", n)
				}
				exp.MaxRuns = first.Pairs
				fresh, err := exp.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if fresh.Pairs != 23 || fresh.StopReason != StopMaxRuns {
					t.Fatalf("fresh run stopped at n %d (%s); this case stops at n 23 (%s)",
						fresh.Pairs, fresh.StopReason, StopMaxRuns)
				}
				resumed := exp
				resumed.Store = mem
				res, err := resumed.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderText(t, res), renderText(t, fresh); got != want {
					t.Errorf("resumed run differs from a fresh run:\n%s--- fresh ---\n%s", got, want)
				}
			})
		}
	}
}

// TestOffResumeAfterBudgetChange: an EarlyStopOff run resumed at another
// budget reports what a storeless run at that budget reports — whether the
// stored trials cover fewer pairs than the rerun feeds or more (40→13),
// and whether or not the first run quarantined a pair (put@3), which
// leaves a hole in the stored trials.
func TestOffResumeAfterBudgetChange(t *testing.T) {
	for _, budget := range [][2]int{{13, 40}, {29, 64}, {40, 13}, {5, 9}} {
		for _, fault := range []struct{ name, schedule string }{{"clean", ""}, {"quarantine", "put@3"}} {
			for _, effect := range []float64{0, 0.03} {
				name := fmt.Sprintf("%d-to-%d/%s/effect-%v", budget[0], budget[1], fault.name, effect)
				t.Run(name, func(t *testing.T) {
					exp := Experiment{
						ATrial:      normalSide("a", 0.75+effect),
						BTrial:      normalSide("b", 0.75),
						Seed:        1,
						MaxRuns:     budget[0],
						EarlyStop:   EarlyStopOff,
						Bootstrap:   200,
						Parallelism: 1,
						Retry:       RetryPolicy{MaxAttempts: 1},
					}
					mem := store.NewMem()
					first := exp
					first.Store = faultInject(t, mem, fault.schedule)
					res, err := first.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					wantQuarantined := 0
					if fault.schedule != "" {
						wantQuarantined = 1
					}
					if res.Quarantined != wantQuarantined {
						t.Fatalf("first run quarantined %d pairs, want %d", res.Quarantined, wantQuarantined)
					}
					exp.MaxRuns = budget[1]
					fresh, err := exp.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					resumed := exp
					resumed.Store = mem
					got, err := resumed.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if g, w := renderText(t, got), renderText(t, fresh); g != w {
						t.Errorf("resumed run differs from a storeless run:\n%s--- storeless ---\n%s", g, w)
					}
				})
			}
		}
	}
}
