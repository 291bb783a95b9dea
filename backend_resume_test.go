package varbench

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"varbench/store"
)

// TestStoreResumeBackends extends the seglog resume acceptance test
// (TestVarianceStudyStoreResume) to the mem backend: a variance study
// interrupted mid-collection and resumed renders a byte-identical report to
// an uninterrupted run, recomputing only the missing cells. mem cannot
// outlive a process, so the resumed run reuses the live store, pinning the
// same cache-correctness property without the durability leg.
func TestStoreResumeBackends(t *testing.T) {
	study := func(p TrialFunc, st store.Backend) VarianceStudy {
		return VarianceStudy{
			Pipeline:     p,
			Sources:      []Source{VarInit, VarOrder},
			K:            3,
			Realizations: 2,
			Seed:         11,
			Parallelism:  4,
			Store:        st,
			PipelineID:   "backend-resume-test",
		}
	}
	render := func(t *testing.T, rep *VarianceReport) string {
		t.Helper()
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
	golden := render(t, rep)

	t.Run("mem", func(t *testing.T) {
		st := store.NewMem()
		defer st.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		_, err := study(countingPipeline(&calls, 0.2, 5, cancel), st).Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted run: want context.Canceled, got %v", err)
		}

		recorded := st.CountPrefix("trial/")
		if recorded < 5 || recorded >= total {
			t.Fatalf("interrupted run recorded %d trials, want in [5, %d)", recorded, total)
		}
		var resumeCalls atomic.Int64
		rep2, err := study(countingPipeline(&resumeCalls, 0.2, 0, nil), st).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := render(t, rep2); got != golden {
			t.Errorf("resumed report differs from uninterrupted golden:\n%s\n--- golden ---\n%s", got, golden)
		}
		if got, want := resumeCalls.Load(), int64(total-recorded); got != want {
			t.Errorf("resumed run made %d pipeline calls, want %d (total %d - %d cached)",
				got, want, total, recorded)
		}
	})
}

// TestExperimentResumeBackendEquivalence: one interrupted Experiment.Run
// resumed on each backend lands on the byte-identical report — the report
// must not depend on which engine persisted the trials, nor on an analysis
// record an older build left in the store.
func TestExperimentResumeBackendEquivalence(t *testing.T) {
	const maxRuns = 12
	// The cancel lands on the 11th pipeline call. Every call entered by
	// then completes and is stored, so the interrupted run leaves at least
	// 11 of the 24 cells for the resumed run.
	const cancelAt = 11
	exp := func(a, b TrialFunc, st store.Backend) Experiment {
		return Experiment{
			ATrial:      a,
			BTrial:      b,
			Seed:        5,
			MaxRuns:     maxRuns,
			EarlyStop:   EarlyStopOff,
			Bootstrap:   50,
			Parallelism: 4,
			Store:       st,
			PipelineID:  "backend-equivalence-test",
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
	res, err := exp(
		countingPipeline(&goldenCalls, 0.3, 0, nil),
		countingPipeline(&goldenCalls, 0.1, 0, nil), nil).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	golden := render(res)

	seglog := func() *store.SegLog {
		sl, err := store.OpenSegLog(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return sl
	}
	legs := []struct {
		name string
		st   store.Backend
		// resume, when set, stands between the two runs and returns the
		// backend the resumed run uses.
		resume func(t *testing.T, st store.Backend) store.Backend
	}{
		{"mem", store.NewMem(), nil},
		// Every leg's interrupted run leaves trials and no analysis record,
		// so the seglog leg resumes from trials alone.
		{"seglog", seglog(), nil},
		// Builds before the exact interval stored each dataset's analysis
		// under an analysis/ key. The resumed run must neither read nor
		// drop such a record.
		{"stale-analysis", seglog(), func(t *testing.T, st store.Backend) store.Backend {
			putStaleAnalysis(t, st)
			return nopCloser{st}
		}},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			st := leg.st
			defer st.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			a := countingPipeline(&calls, 0.3, cancelAt, cancel)
			b := countingPipeline(&calls, 0.1, cancelAt, cancel)
			if _, err := exp(a, b, st).Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run: want context.Canceled, got %v", err)
			}
			if n := st.CountPrefix("analysis/"); n != 0 {
				t.Fatalf("interrupted run left %d analysis records, want none", n)
			}
			if leg.resume != nil {
				st = leg.resume(t, st)
				defer st.Close()
			}
			var resumeCalls atomic.Int64
			rA := countingPipeline(&resumeCalls, 0.3, 0, nil)
			rB := countingPipeline(&resumeCalls, 0.1, 0, nil)
			res2, err := exp(rA, rB, st).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := render(res2); got != golden {
				t.Errorf("%s-resumed report differs from golden:\n%s\n--- golden ---\n%s",
					leg.name, got, golden)
			}
			if got := resumeCalls.Load(); got > 2*maxRuns-cancelAt {
				t.Errorf("resumed run made %d pipeline calls, want at most %d: the %d cells the interrupted run completed were not all served from %s",
					got, 2*maxRuns-cancelAt, cancelAt, leg.name)
			}
			if leg.name == "stale-analysis" && st.CountPrefix("analysis/") != 1 {
				t.Errorf("resumed run dropped the stale analysis record")
			}
		})
	}
}

// nopCloser hands a backend to a leg whose deferred Close would otherwise
// close it twice.
type nopCloser struct{ store.Backend }

func (nopCloser) Close() error { return nil }

// putStaleAnalysis writes the kind of analysis/ record older builds
// stored for the backend-equivalence experiment's dataset.
func putStaleAnalysis(t *testing.T, st store.Backend) {
	t.Helper()
	if err := st.PutJSON("analysis/seed=5/scope=dataset/", "old-build", map[string]any{"n": 4, "state": "AAAA"}); err != nil {
		t.Fatal(err)
	}
}
