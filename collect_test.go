package varbench

import (
	"context"
	"testing"

	"varbench/internal/xrand"
	"varbench/store"
)

// TestStoreHitResolveAllocatesOnlyTheKey: serving a cell from the store
// costs one allocation, the cell's key, and a miss uses that same key for
// its put.
func TestStoreHitResolveAllocatesOnlyTheKey(t *testing.T) {
	st := store.NewMem()
	cache := &trialCache{store: st, fp: "fp", seed: 3, dataset: "ds"}
	g := &guard{retry: RetryPolicy{}.normalized(), failFast: true, sleep: sleepCtx}
	ctx := context.Background()
	tr := Trial{Index: 5, Seed: 9}
	run := func(Trial) (float64, error) { return 0.5, nil }
	if _, _, err := cache.resolve(ctx, g, tr, "A", run, ""); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get(store.TrialKey(3, "ds", 5, "A"), "fp"); !ok || v != 0.5 {
		t.Fatalf("miss stored %v, %v under the trial key, want 0.5", v, ok)
	}
	fail := func(Trial) (float64, error) {
		t.Fatal("a store hit ran the pipeline")
		return 0, nil
	}
	allocs := testing.AllocsPerRun(100, func() {
		if v, _, err := cache.resolve(ctx, g, tr, "A", fail, ""); err != nil || v != 0.5 {
			t.Fatalf("hit = %v, %v", v, err)
		}
	})
	if allocs != 1 {
		t.Errorf("a store-hit resolve allocates %v times, want 1 (the key)", allocs)
	}
}

// TestTakeAllocatesNothing: a trial is its index, its seed and the
// stream's shared seed plan, so taking a batch into a reused slice
// allocates nothing — restricted or not.
func TestTakeAllocatesNothing(t *testing.T) {
	for _, sources := range [][]Source{nil, {VarInit, "custom"}} {
		e := Experiment{Seed: 7, Sources: sources}
		cfg, err := e.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		stream := cfg.trialStream("ds")
		batch := make([]Trial, 0, 8)
		allocs := testing.AllocsPerRun(100, func() {
			batch = stream.take(batch[:0], 8)
		})
		if allocs != 0 {
			t.Errorf("sources %v: take allocates %v times per batch, want 0", sources, allocs)
		}
	}
}

// TestZeroPlanSourceSeed: a trial without a seed plan varies every source,
// deriving each one's seed from its root seed alone, as xrand.NewStreams
// does, and without allocating.
func TestZeroPlanSourceSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		tr := Trial{Seed: seed}
		for _, s := range append(AllSources(), "custom", "") {
			if got, want := tr.SourceSeed(s), xrand.New(seed).Split(string(s)).Uint64(); got != want {
				t.Errorf("seed %#x source %q: %#x, want %#x", seed, s, got, want)
			}
		}
	}
	tr := Trial{Seed: 11, plan: &seedPlan{fixedRoot: 3}}
	if allocs := testing.AllocsPerRun(100, func() { tr.SourceSeed("custom") }); allocs != 0 {
		t.Errorf("SourceSeed allocates %v times, want 0", allocs)
	}
}

// TestSharedSeedPlanAcrossWorkers: every worker reads its stream's one
// seed plan, so a restricted collection derives the same seeds at any
// worker count. Run it under -race.
func TestSharedSeedPlanAcrossWorkers(t *testing.T) {
	labels := append(AllSources(), "custom", "unlisted")
	run := func(tr Trial) (float64, error) {
		var h uint64
		for _, s := range labels {
			h = h*31 + tr.SourceSeed(s)
		}
		return float64(h >> 11), nil
	}
	collect := func(workers int) []float64 {
		e := Experiment{ATrial: run, Seed: 3, MaxRuns: 64, Sources: []Source{VarInit, "custom"}, Parallelism: workers}
		out, err := e.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := collect(1)
	for _, workers := range []int{4, 8} {
		got := collect(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%d workers: trial %d scored %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}
