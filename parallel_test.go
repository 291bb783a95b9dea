package varbench

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"varbench/internal/stats"
)

// TestTrialStreamMatchesHistoricalSeeds pins the lazy trial stream to the
// seed sequence of the historical eager makeTrials (captured from the
// pre-stream implementation), so experiments keep reproducing bit-for-bit
// across the refactor. The golden values cover the vary-all default, a
// restricted Sources set on a named dataset, and a custom source label.
func TestTrialStreamMatchesHistoricalSeeds(t *testing.T) {
	type goldenTrial struct {
		seed uint64
		src  map[Source]uint64
	}
	check := func(name string, e Experiment, dataset string, want []goldenTrial) {
		t.Helper()
		cfg, err := e.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		// Stream taken in uneven slices to exercise batch boundaries.
		stream := cfg.trialStream(dataset)
		var trials []Trial
		for len(trials) < len(want) {
			n := min(2, len(want)-len(trials))
			trials = stream.take(trials, n)
		}
		// The eager wrapper must agree with the stream.
		eager := cfg.makeTrials(dataset)
		for i, w := range want {
			if trials[i].Index != i || trials[i].Seed != w.seed {
				t.Errorf("%s trial %d: seed %#x, want %#x", name, i, trials[i].Seed, w.seed)
			}
			if eager[i].Seed != w.seed {
				t.Errorf("%s makeTrials %d: seed %#x, want %#x", name, i, eager[i].Seed, w.seed)
			}
			for s, seed := range w.src {
				if got := trials[i].SourceSeed(s); got != seed {
					t.Errorf("%s trial %d source %s: %#x, want %#x", name, i, s, got, seed)
				}
			}
		}
	}

	check("vary-all", Experiment{Seed: 7, MaxRuns: 6}, "", []goldenTrial{
		{0xb358faf74ef9765a, map[Source]uint64{VarInit: 0x7f8441ab1e2c0515, VarHOpt: 0x479d06dcd2a601b2}},
		{0x475c3d964f482cd2, map[Source]uint64{VarInit: 0x0e0dde01ccc62106, VarHOpt: 0x1d150ef6212c2cd2}},
		{0xd6f1d349952c7996, map[Source]uint64{VarInit: 0x2361fe26ac8cebbf, VarHOpt: 0x440c7edf5acfbaab}},
		{0xfb2938731e807240, map[Source]uint64{VarInit: 0x44f00f897853817d, VarHOpt: 0xd3fd92a75dad9df1}},
		{0xfda904ec7e540318, map[Source]uint64{VarInit: 0xfd783fdaf9b6f16a, VarHOpt: 0x47c23c8bd55b1fd4}},
		{0xdf6e1ce3b6218c49, map[Source]uint64{VarInit: 0x6b95df50daac899f, VarHOpt: 0xe4dc1dbeb1e7e7b3}},
	})

	custom := Source("custom")
	check("restricted named", Experiment{Seed: 5, MaxRuns: 4, Sources: []Source{VarInit}}, "d1", []goldenTrial{
		{0x4c21188013e4a477, map[Source]uint64{VarInit: 0x445c34dbc5390d90, VarOrder: 0x02c796c481e52b0f, custom: 0x812f3db910aacb93}},
		{0xdf10c397715b2cb6, map[Source]uint64{VarInit: 0xf85254d732c6c856, VarOrder: 0x02c796c481e52b0f, custom: 0x812f3db910aacb93}},
		{0x86455f2dd81af374, map[Source]uint64{VarInit: 0xaa0fc6269e56f1b7, VarOrder: 0x02c796c481e52b0f, custom: 0x812f3db910aacb93}},
		{0x9a987191a624a944, map[Source]uint64{VarInit: 0x132779545626a0f7, VarOrder: 0x02c796c481e52b0f, custom: 0x812f3db910aacb93}},
	})

	noise := Source("my-noise")
	check("custom source", Experiment{Seed: 11, MaxRuns: 3, Sources: []Source{noise}}, "", []goldenTrial{
		{0x39287fc26939a7df, map[Source]uint64{noise: 0x2bc55b378a048879, VarDataSplit: 0x3a89676c6ea7c16a}},
		{0x1654fe5f5c55a081, map[Source]uint64{noise: 0x8eb7204694a884d1, VarDataSplit: 0x3a89676c6ea7c16a}},
		{0x3ec96828463614ad, map[Source]uint64{noise: 0x0e074c93138add6b, VarDataSplit: 0x3a89676c6ea7c16a}},
	})
}

// TestRunAnalysisParallelismGrid proves bit-identical results across the
// full {collection workers} × {GOMAXPROCS} grid: the incremental analysis
// shards its bootstrap across GOMAXPROCS workers, the determinism contract
// of the parallel analysis engine.
func TestRunAnalysisParallelismGrid(t *testing.T) {
	spec := Experiment{
		A:       noisyRunner(0.85),
		B:       noisyRunner(0.83),
		Seed:    7,
		MaxRuns: 48,
	}
	workerGrid := []int{1, 4, runtime.GOMAXPROCS(0)}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Result
	for _, collect := range workerGrid {
		for _, procs := range workerGrid {
			runtime.GOMAXPROCS(procs)
			e := spec
			e.Parallelism = collect
			res, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			res.Elapsed = 0 // wall-clock, legitimately varies
			if ref == nil {
				ref = res
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("collect=%d GOMAXPROCS=%d diverged:\n %+v\n %+v",
					collect, procs, res.Comparison, ref.Comparison)
			}
		}
	}
}

func TestAnalyzeAnalysisParallelismInvariance(t *testing.T) {
	ds := syntheticDatasets(5, 1, 25, 0.3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{2, 4, runtime.GOMAXPROCS(0)}
	runtime.GOMAXPROCS(1)
	ref, err := Analyze(ds[0].ScoresA, ds[0].ScoresB, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	refU, err := Analyze(ds[0].ScoresA, ds[0].ScoresB[:20], WithUnpaired(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		res, err := Analyze(ds[0].ScoresA, ds[0].ScoresB, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Comparison != ref.Comparison {
			t.Errorf("GOMAXPROCS=%d: %+v != %+v", p, res.Comparison, ref.Comparison)
		}
		// Unpaired path too.
		resU, err := Analyze(ds[0].ScoresA, ds[0].ScoresB[:20], WithUnpaired(), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if resU.Comparison != refU.Comparison {
			t.Errorf("unpaired GOMAXPROCS=%d: %+v != %+v", p, resU.Comparison, refU.Comparison)
		}
	}
}

func TestAnalyzeDatasetsAnalysisParallelismInvariance(t *testing.T) {
	ds := syntheticDatasets(9, 4, 25, 0.4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(1)
	ref, err := AnalyzeDatasets(ds, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(max(procs, 4))
	res, err := AnalyzeDatasets(ds, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Datasets, res.Datasets) {
		t.Error("AnalyzeDatasets differs across GOMAXPROCS")
	}
}

// TestRunMultiDatasetProgressSerialized exercises the concurrent
// multi-dataset collection path under the race detector: the Progress
// callback appends to a plain slice with no synchronization, which is only
// safe because Run holds one mutex around every callback.
func TestRunMultiDatasetProgressSerialized(t *testing.T) {
	var events []Progress // deliberately unsynchronized
	e := Experiment{
		Datasets: []Dataset{
			{Name: "d1", A: noisyRunner(0.9), B: noisyRunner(0.7)},
			{Name: "d2", A: noisyRunner(0.8), B: noisyRunner(0.6)},
			{Name: "d3", A: noisyRunner(0.7), B: noisyRunner(0.5)},
			{Name: "d4", A: noisyRunner(0.6), B: noisyRunner(0.4)},
		},
		MaxRuns:     24,
		EarlyStop:   EarlyStopOff,
		Parallelism: 4,
		Progress:    func(p Progress) { events = append(events, p) },
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 24; len(events) != want { // 4 datasets × 24 trials
		t.Fatalf("progress fired %d times, want %d", len(events), want)
	}
	// Each dataset reports its trials one at a time, in index order, even
	// though datasets interleave.
	last := map[string]int{}
	for _, ev := range events {
		if ev.Pairs != last[ev.Dataset]+1 {
			t.Errorf("dataset %s progress went from %d to %d pairs",
				ev.Dataset, last[ev.Dataset], ev.Pairs)
		}
		last[ev.Dataset] = ev.Pairs
	}
	// Result order follows the declaration order, not completion order.
	for i, want := range []string{"d1", "d2", "d3", "d4"} {
		if res.Datasets[i].Name != want {
			t.Errorf("dataset %d = %s, want %s", i, res.Datasets[i].Name, want)
		}
	}
}

// TestRunMultiDatasetMatchesIndividualRuns: concurrent multi-dataset
// collection must reproduce exactly what each dataset yields when run
// alone at the same adjusted threshold — scheduling cannot leak between
// datasets.
func TestRunMultiDatasetMatchesIndividualRuns(t *testing.T) {
	mk := func(names ...string) []Dataset {
		var out []Dataset
		for i, n := range names {
			out = append(out, Dataset{
				Name: n,
				A:    noisyRunner(0.9 - 0.1*float64(i)),
				B:    noisyRunner(0.7 - 0.1*float64(i)),
			})
		}
		return out
	}
	all := Experiment{Datasets: mk("d1", "d2", "d3"), Seed: 3, MaxRuns: 24}
	res, err := all.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	adj := stats.GammaBonferroni(DefaultGamma, 0.05, 3)
	for i, ds := range all.Datasets {
		cfg, err := all.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		dr, err := cfg.runDataset(context.Background(), ds, adj)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*dr, res.Datasets[i]) {
			t.Errorf("dataset %s diverges from its solo run", ds.Name)
		}
	}
}

// TestRunHugeMaxRunsLazyAllocation is the memory regression for the lazy
// trial stream: before it, Run materialized MaxRuns Trial structs (plus one
// seed map each) before the first measurement, so a MaxRuns in the billions
// — Noether's N for γ near 0.5 — was an instant OOM. Now memory tracks the
// 29 pairs of Noether's N.
func TestRunHugeMaxRunsLazyAllocation(t *testing.T) {
	e := Experiment{
		A:       noisyRunner(1.0),
		B:       noisyRunner(0.5),
		MaxRuns: 1 << 30, // ~1e9 trials if materialized eagerly (fits 32-bit int)
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped || res.StopReason != StopNoetherN {
		t.Fatalf("run did not stop at Noether's N: %d pairs, %s", res.Pairs, res.StopReason)
	}
	if res.Pairs > 64 {
		t.Errorf("collected %d pairs, expected a handful", res.Pairs)
	}
}

func TestNegativeKnobsRejected(t *testing.T) {
	ok := noisyRunner(1)
	cases := map[string]Experiment{
		"Parallelism": {A: ok, B: ok, Parallelism: -1},
		"MaxRuns":     {A: ok, B: ok, MaxRuns: -3},
		// No policy but the two named ones: a run must not quietly treat
		// an unknown one as EarlyStopOff and collect MaxRuns pairs.
		"EarlyStop=99": {A: ok, B: ok, EarlyStop: EarlyStopPolicy(99), MaxRuns: 40},
		"EarlyStop=-1": {A: ok, B: ok, EarlyStop: EarlyStopPolicy(-1)},
	}
	for name, e := range cases {
		if _, err := e.Run(context.Background()); err == nil {
			t.Errorf("%s: explicit out-of-range value accepted", name)
		} else if name == "EarlyStop=99" && !strings.Contains(err.Error(), "99") {
			t.Errorf("%s: error %q does not name the value", name, err)
		}
	}
	// An Option is a func(*Experiment), so one can set these fields too;
	// the score-level entry points must reject the same way.
	a := []float64{1, 2, 3}
	for name, opt := range map[string]Option{
		"Parallelism":  func(e *Experiment) { e.Parallelism = -1 },
		"MaxRuns":      func(e *Experiment) { e.MaxRuns = -1 },
		"EarlyStop=99": func(e *Experiment) { e.EarlyStop = 99 },
		"EarlyStop=-1": func(e *Experiment) { e.EarlyStop = -1 },
	} {
		if _, err := Analyze(a, a, opt); err == nil {
			t.Errorf("%s set through an Option: explicit out-of-range value accepted", name)
		}
	}
	// Zero still means "use the default".
	zero := func(e *Experiment) { e.Parallelism, e.MaxRuns = 0, 0 }
	if _, err := Analyze(a, a, zero); err != nil {
		t.Errorf("zero-valued knobs rejected: %v", err)
	}
}

func TestScoreEntryPointsRejectTooFewScores(t *testing.T) {
	cases := map[string][2][]float64{
		"empty":     {nil, nil},
		"single":    {{1}, {2}},
		"one-sided": {{1, 2, 3}, {1}},
	}
	for name, c := range cases {
		if _, err := Analyze(c[0], c[1], WithUnpaired()); err == nil {
			t.Errorf("Analyze unpaired %s: accepted", name)
		}
	}
	if _, err := Analyze(nil, nil); err == nil {
		t.Error("Analyze paired empty: accepted")
	}
	if _, err := Analyze([]float64{1}, []float64{2}); err == nil {
		t.Error("Analyze paired single: accepted")
	}
	if _, err := AnalyzeDatasets([]DatasetScores{
		{Name: "ok", ScoresA: []float64{1, 2, 3}, ScoresB: []float64{0, 1, 2}},
		{Name: "thin", ScoresA: []float64{1}, ScoresB: []float64{0}},
	}); err == nil {
		t.Error("AnalyzeDatasets with a 1-score dataset: accepted")
	}

	// A NaN or ±Inf score would count as a loss for A. Every score entry
	// point rejects it, naming the dataset and the position; a stream
	// names the position among all its pairs and adds none of the call.
	good := []float64{0.9, 0.8, 0.95, 0.85, 0.9, 0.88}
	rejects := func(what string, err error, want ...string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", what)
			return
		}
		for _, w := range want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %q", what, err, w)
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		worse := []float64{0.1, 0.2, 0.15, 0.25, bad, 0.12}
		_, err := Analyze(good, worse)
		rejects("Analyze with "+strconv.FormatFloat(bad, 'g', -1, 64)+" in B", err, "B[4]")
		_, err = Analyze(worse, good)
		rejects("Analyze with a non-finite A score", err, "A[4]")
		_, err = Analyze(good, worse[:5], WithUnpaired())
		rejects("Analyze unpaired with a non-finite score", err, "B[4]")
		_, err = AnalyzeDatasets([]DatasetScores{
			{Name: "ok", ScoresA: good, ScoresB: good},
			{Name: "thick", ScoresA: good, ScoresB: worse},
		})
		rejects("AnalyzeDatasets with a non-finite score", err, "dataset thick", "B[4]")

		s, err := NewStream()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Extend(good[:2], worse[:2]); err != nil {
			t.Fatal(err)
		}
		_, err = s.Extend(good[2:], worse[2:])
		rejects("Stream.Extend with a non-finite score", err, "B[4]")
		if s.N() != 2 {
			t.Errorf("a refused Extend added pairs: N = %d, want 2", s.N())
		}
	}
}

// TestAnalyzeDatasetsNameValidation: per-dataset bootstrap streams are
// keyed by (seed, name), so AnalyzeDatasets must enforce the same
// present-and-unique name rule as Experiment.Run — two same-named (or
// unnamed) datasets would silently share one resampling stream and their
// CIs would be correlated instead of independent.
func TestAnalyzeDatasetsNameValidation(t *testing.T) {
	scores := syntheticDatasets(3, 2, 10, 1.0)
	dup := []DatasetScores{
		{Name: "x", ScoresA: scores[0].ScoresA, ScoresB: scores[0].ScoresB},
		{Name: "x", ScoresA: scores[1].ScoresA, ScoresB: scores[1].ScoresB},
	}
	if _, err := AnalyzeDatasets(dup); err == nil {
		t.Error("duplicate dataset names accepted")
	}
	unnamed := []DatasetScores{
		{Name: "x", ScoresA: scores[0].ScoresA, ScoresB: scores[0].ScoresB},
		{ScoresA: scores[1].ScoresA, ScoresB: scores[1].ScoresB},
	}
	if _, err := AnalyzeDatasets(unnamed); err == nil {
		t.Error("unnamed dataset in a multi-dataset analysis accepted")
	}
	// A lone unnamed dataset stays legal, like single-dataset Analyze.
	solo := []DatasetScores{{ScoresA: scores[0].ScoresA, ScoresB: scores[0].ScoresB}}
	if _, err := AnalyzeDatasets(solo); err != nil {
		t.Errorf("single unnamed dataset rejected: %v", err)
	}
}

// TestSaturatedAdjustedGammaEarlyStop: with enough datasets the Bonferroni
// adjustment saturates at stats.GammaMax < 1; a total winner must still be
// judged a meaningful win, which the old clamp at exactly 1.0 made
// impossible (CI.Lo > 1 cannot happen), and Noether's N stays finite (8),
// so every dataset stops at 8 pairs.
func TestSaturatedAdjustedGammaEarlyStop(t *testing.T) {
	adj := stats.GammaBonferroni(DefaultGamma, 0.05, 200)
	if adj != stats.GammaMax {
		t.Fatalf("200 comparisons should saturate the adjustment, got %v", adj)
	}
	var datasets []Dataset
	for i := 0; i < 200; i++ {
		datasets = append(datasets, Dataset{Name: "d" + strconv.Itoa(i)})
	}
	e := Experiment{
		// A wins every single trial: the bootstrap CI is [1,1].
		A:        func(seed uint64) (float64, error) { return 1, nil },
		B:        func(seed uint64) (float64, error) { return 0, nil },
		Datasets: datasets,
		MaxRuns:  64,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("total winner did not early-stop at the saturated threshold")
	}
	for _, d := range res.Datasets {
		if d.StopReason != StopNoetherN || d.Pairs != 8 {
			t.Fatalf("dataset %s stopped with %s at %d pairs, want %s at 8", d.Name, d.StopReason, d.Pairs, StopNoetherN)
		}
		if d.Comparison.Conclusion != SignificantAndMeaningful {
			t.Fatalf("dataset %s judged %q at saturated γ", d.Name, d.Comparison.Conclusion)
		}
	}
	if !res.AllMeaningful {
		t.Error("total winner rejected by the all-datasets criterion")
	}
}
