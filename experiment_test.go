package varbench

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"varbench/internal/xrand"
)

// noisyRunner builds a pure RunFunc with the given mean: score = mean +
// 0.05·N(0,1) derived deterministically from the seed.
func noisyRunner(mean float64) RunFunc {
	return func(seed uint64) (float64, error) {
		return mean + 0.05*xrand.New(seed^0x9E3779B9).NormFloat64(), nil
	}
}

func TestRunParallelismInvariance(t *testing.T) {
	spec := Experiment{
		A:       noisyRunner(0.85),
		B:       noisyRunner(0.83),
		Seed:    7,
		MaxRuns: 48,
	}
	serial := spec
	serial.Parallelism = 1
	parallel := spec
	parallel.Parallelism = 8

	r1, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := parallel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Comparison != r8.Comparison {
		t.Errorf("comparisons differ across parallelism:\n p=1: %+v\n p=8: %+v",
			r1.Comparison, r8.Comparison)
	}
	if !reflect.DeepEqual(r1.Datasets[0].ScoresA, r8.Datasets[0].ScoresA) ||
		!reflect.DeepEqual(r1.Datasets[0].ScoresB, r8.Datasets[0].ScoresB) {
		t.Error("collected scores differ across parallelism")
	}
	if r1.Pairs != r8.Pairs || r1.StopReason != r8.StopReason || r1.EarlyStopped != r8.EarlyStopped {
		t.Errorf("stop bookkeeping differs: p=1 (%d, %s) vs p=8 (%d, %s)",
			r1.Pairs, r1.StopReason, r8.Pairs, r8.StopReason)
	}
}

func TestRunParallelismInvarianceMultiDataset(t *testing.T) {
	spec := Experiment{
		Datasets: []Dataset{
			{Name: "d1", A: noisyRunner(0.9), B: noisyRunner(0.7)},
			{Name: "d2", A: noisyRunner(0.8), B: noisyRunner(0.6)},
			{Name: "d3", A: noisyRunner(0.7), B: noisyRunner(0.5)},
		},
		Seed:    3,
		MaxRuns: 24,
	}
	serial := spec
	serial.Parallelism = 1
	parallel := spec
	parallel.Parallelism = 8
	r1, err := serial.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := parallel.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Datasets, r8.Datasets) {
		t.Error("per-dataset results differ across parallelism")
	}
	if r1.WilcoxonP != r8.WilcoxonP || r1.AllMeaningful != r8.AllMeaningful {
		t.Error("aggregate statistics differ across parallelism")
	}
	if !r1.AllMeaningful {
		t.Errorf("clear winner not accepted: %+v", r1.Datasets)
	}
}

func TestRunEarlyStopsClearSeparation(t *testing.T) {
	// A dominates B by 10σ, and MaxRuns leaves room past Noether's N:
	// collection stops at exactly N (29 pairs at γ=0.75) and judges the
	// win once.
	e := Experiment{
		A:           noisyRunner(1.0),
		B:           noisyRunner(0.5),
		MaxRuns:     64,
		Parallelism: 2,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("clearly separated pair did not early-stop")
	}
	if res.Pairs != 29 {
		t.Errorf("early stop used %d of %d runs, want Noether's 29", res.Pairs, 64)
	}
	if res.StopReason != StopNoetherN {
		t.Errorf("stop reason = %s, want %s", res.StopReason, StopNoetherN)
	}
	if res.Comparison.Conclusion != SignificantAndMeaningful {
		t.Errorf("conclusion = %s", res.Comparison.Conclusion)
	}
	if res.Runs != 2*res.Pairs {
		t.Errorf("runs = %d, want %d", res.Runs, 2*res.Pairs)
	}
}

// TestRunCollectsExactlyN: without quarantine a run collects exactly
// Noether's N per dataset, and runs each pipeline exactly N times per
// dataset, at any Parallelism. With MaxRuns above N a one-dataset run
// collects 29 pairs (γ 0.75); the default two-dataset run collects 21 per
// dataset (γ 0.798). Rounding N up to a batch of 8 would give 32 and 24.
func TestRunCollectsExactlyN(t *testing.T) {
	cases := []struct {
		name     string
		e        Experiment
		datasets int
		want     int
	}{
		{"one dataset, MaxRuns 64", Experiment{MaxRuns: 64}, 1, 29},
		{"two datasets, default MaxRuns", Experiment{Datasets: []Dataset{{Name: "d1"}, {Name: "d2"}}}, 2, 21},
	}
	for _, c := range cases {
		for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			var calls atomic.Int64
			count := func(f RunFunc) RunFunc {
				return func(seed uint64) (float64, error) { calls.Add(1); return f(seed) }
			}
			e := c.e
			e.A, e.B, e.Parallelism = count(noisyRunner(1.0)), count(noisyRunner(0.5)), par
			res, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range res.Datasets {
				if d.Pairs != c.want || len(d.ScoresA) != c.want || d.StopReason != StopNoetherN {
					t.Errorf("%s, p=%d: dataset %q collected %d pairs (%d scores, %s), want %d (%s)",
						c.name, par, d.Name, d.Pairs, len(d.ScoresA), d.StopReason, c.want, StopNoetherN)
				}
			}
			if got, want := calls.Load(), int64(2*c.datasets*c.want); got != want {
				t.Errorf("%s, p=%d: pipelines ran %d times, want %d", c.name, par, got, want)
			}
		}
	}
}

// TestCollectionHasNoBatchBarrier: a slow trial holds up no other trial.
// At Parallelism 4, trial 0 blocks until a trial with index 8 or more has
// started, which a batch of trials 0–7 that waits for its slowest trial
// never does. The wait times out rather than hanging the test.
func TestCollectionHasNoBatchBarrier(t *testing.T) {
	for _, paired := range []bool{true, false} {
		later := make(chan struct{})
		var once sync.Once
		run := func(tr Trial) (float64, error) {
			if tr.Index >= 8 {
				once.Do(func() { close(later) })
			}
			if tr.Index == 0 {
				select {
				case <-later:
				case <-time.After(10 * time.Second):
					return 0, errors.New("trial 0 waited 10s for a trial past index 7 to start")
				}
			}
			return float64(tr.Index), nil
		}
		e := Experiment{ATrial: run, MaxRuns: 16, EarlyStop: EarlyStopOff, Parallelism: 4}
		var err error
		if paired {
			e.BTrial = run
			_, err = e.Run(context.Background())
		} else {
			_, err = e.Collect(context.Background())
		}
		if err != nil {
			t.Fatalf("paired=%v: %v", paired, err)
		}
	}
}

func TestRunEarlyStopNoetherN(t *testing.T) {
	// Indistinguishable pipelines: collection stops at Noether's
	// recommended N (29 at γ=0.75) short of MaxRuns.
	e := Experiment{
		A:       noisyRunner(0.7),
		B:       noisyRunner(0.7),
		Seed:    11,
		MaxRuns: 200,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.StopReason != StopNoetherN {
		t.Fatalf("stop reason = %s", res.StopReason)
	}
	if res.Pairs != res.Comparison.RecommendedN {
		t.Errorf("stopped at %d pairs, want the recommended %d", res.Pairs, res.Comparison.RecommendedN)
	}
	if res.Pairs >= 200 {
		t.Error("null comparison ran to MaxRuns despite early stopping")
	}
}

func TestRunEarlyStopOff(t *testing.T) {
	e := Experiment{
		A:         noisyRunner(1.0),
		B:         noisyRunner(0.5),
		MaxRuns:   40,
		EarlyStop: EarlyStopOff,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != 40 || res.EarlyStopped {
		t.Errorf("early stop off collected %d pairs (early=%v), want all 40", res.Pairs, res.EarlyStopped)
	}
	if res.StopReason != StopMaxRuns {
		t.Errorf("stop reason = %s", res.StopReason)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	slow := func(seed uint64) (float64, error) {
		// Cancel mid-collection from inside the first run.
		once.Do(cancel)
		time.Sleep(time.Millisecond)
		return 1, nil
	}
	e := Experiment{
		A:           slow,
		B:           noisyRunner(0.5),
		MaxRuns:     64,
		Parallelism: 4,
	}
	if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Serial path too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	e.Parallelism = 1
	if _, err := e.Run(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("serial err = %v, want context.Canceled", err)
	}
}

func TestRunPropagatesPipelineErrors(t *testing.T) {
	boom := errors.New("boom")
	bad := func(uint64) (float64, error) { return 0, boom }
	e := Experiment{A: bad, B: noisyRunner(0.5), Parallelism: 4}
	if _, err := e.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	e = Experiment{A: noisyRunner(0.5), B: bad, Parallelism: 1}
	if _, err := e.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	ok := noisyRunner(1)
	okT := func(Trial) (float64, error) { return 1, nil }
	cases := map[string]Experiment{
		"no A":          {B: ok},
		"no B":          {A: ok},
		"A and ATrial":  {A: ok, ATrial: okT, B: ok},
		"B and BTrial":  {A: ok, B: ok, BTrial: okT},
		"bad gamma":     {A: ok, B: ok, Gamma: 0.4},
		"gamma one":     {A: ok, B: ok, Gamma: 1},
		"bad conf":      {A: ok, B: ok, Confidence: 1.5},
		"one run":       {A: ok, B: ok, MaxRuns: 1},
		"unnamed ds":    {Datasets: []Dataset{{A: ok, B: ok}}},
		"dup ds":        {Datasets: []Dataset{{Name: "x", A: ok, B: ok}, {Name: "x", A: ok, B: ok}}},
		"ds missing AB": {Datasets: []Dataset{{Name: "x"}}},
		// A plain RunFunc cannot hold sources fixed, so restricting
		// Sources demands TrialFunc pipelines.
		"sources with RunFunc": {A: ok, B: ok, Sources: []Source{VarInit}},
		"sources with ds RunFunc": {ATrial: okT, BTrial: okT, Sources: []Source{VarInit},
			Datasets: []Dataset{{Name: "x", A: ok, B: ok}}},
	}
	for name, e := range cases {
		if _, err := e.Run(ctx); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestRunDatasetFallbackPipelines(t *testing.T) {
	// Dataset-level pipelines default to the experiment-level ones.
	e := Experiment{
		A: noisyRunner(1.0),
		B: noisyRunner(0.5),
		Datasets: []Dataset{
			{Name: "custom", A: noisyRunner(0.5), B: noisyRunner(1.0)}, // reversed
			{Name: "default"},
		},
		MaxRuns: 16,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Datasets[0].Comparison.PAB >= 0.5 {
		t.Error("dataset-level pipelines ignored")
	}
	if res.Datasets[1].Comparison.PAB <= 0.5 {
		t.Error("experiment-level fallback broken")
	}
	if res.AllMeaningful {
		t.Error("reversed dataset cannot be a meaningful win")
	}
}

// TestRunProgressCallback: Progress fires once per trial index, in index
// order, with the same sequence at any Parallelism — through quarantined
// trials and the make-up rounds that replace them. Side B fails for good
// on trials 3, 17 and 29, so N = 29 takes a first round of trials 0–28
// (27 survive), a make-up round of 29–30 (29 fails) and one of 31.
func TestRunProgressCallback(t *testing.T) {
	broken := map[int]bool{3: true, 17: true, 29: true}
	var want []Progress
	pairs, quarantined := 0, 0
	for i := 0; i < 32; i++ {
		if broken[i] {
			quarantined++
		} else {
			pairs++
		}
		want = append(want, Progress{Pairs: pairs, MaxRuns: 64, Quarantined: quarantined})
	}
	for _, par := range []int{1, 8, runtime.GOMAXPROCS(0)} {
		var events []Progress
		e := Experiment{
			ATrial: func(tr Trial) (float64, error) { return 1, nil },
			BTrial: func(tr Trial) (float64, error) {
				if broken[tr.Index] {
					return 0, errors.New("permanent fault")
				}
				return 0, nil
			},
			MaxRuns:     64,
			Parallelism: par,
			Retry:       RetryPolicy{MaxAttempts: 1},
			Progress:    func(p Progress) { events = append(events, p) },
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Pairs != 29 || res.Quarantined != 3 || res.StopReason != StopNoetherN {
			t.Errorf("p=%d: %d pairs, %d quarantined, %s; want 29, 3, %s", par, res.Pairs, res.Quarantined, res.StopReason, StopNoetherN)
		}
		if !reflect.DeepEqual(events, want) {
			t.Errorf("p=%d: progress events\n got %v\nwant %v", par, events, want)
		}
	}
}

// take appends the next n trials of the stream to dst and returns it.
// Callers that reuse dst (dst[:0]) allocate nothing.
func (s *trialStream) take(dst []Trial, n int) []Trial {
	for ; n > 0; n-- {
		dst = append(dst, s.trial())
	}
	return dst
}

// makeTrials eagerly materializes the full MaxRuns seed assignment. It is
// the historical eager path, kept as the reference the lazy stream is
// pinned against.
func (e *Experiment) makeTrials(dataset string) []Trial {
	return e.trialStream(dataset).take(make([]Trial, 0, e.MaxRuns), e.MaxRuns)
}

func TestTrialSourceSeeds(t *testing.T) {
	e := Experiment{Seed: 5, MaxRuns: 10, Sources: []Source{VarInit}}
	cfg, err := e.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trials := cfg.makeTrials("")
	for i := 1; i < len(trials); i++ {
		if trials[i].SourceSeed(VarInit) == trials[0].SourceSeed(VarInit) {
			t.Errorf("varied source repeated its seed at trial %d", i)
		}
		for _, s := range AllSources() {
			if s == VarInit {
				continue
			}
			if trials[i].SourceSeed(s) != trials[0].SourceSeed(s) {
				t.Errorf("fixed source %s changed at trial %d", s, i)
			}
		}
	}
	// Varied seeds agree with the xrand.NewStreams derivation from the
	// trial's root seed, so RunFunc and TrialFunc pipelines compose.
	streams := xrand.NewStreams(trials[3].Seed)
	if got, want := xrand.New(trials[3].SourceSeed(VarInit)).Uint64(), streams.Get(xrand.VarInit).Uint64(); got != want {
		t.Errorf("SourceSeed(VarInit) starts the stream at %d, want the NewStreams stream's %d", got, want)
	}
	// A custom label outside the restricted set obeys the same contract as
	// the known sources: fixed across trials.
	custom := Source("my-noise")
	if trials[2].SourceSeed(custom) != trials[4].SourceSeed(custom) {
		t.Error("unlisted custom label varied despite restricted Sources")
	}
	// Listed in Sources, a custom label varies per trial.
	e = Experiment{Seed: 5, MaxRuns: 10, Sources: []Source{custom}}
	cfg, err = e.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trials = cfg.makeTrials("")
	if trials[2].SourceSeed(custom) == trials[4].SourceSeed(custom) {
		t.Error("listed custom label did not vary per trial")
	}
	if trials[2].SourceSeed(VarInit) != trials[4].SourceSeed(VarInit) {
		t.Error("known source varied while only the custom label was listed")
	}
	// With all sources varying (the default), custom labels vary too.
	e = Experiment{Seed: 5, MaxRuns: 10}
	cfg, err = e.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	trials = cfg.makeTrials("")
	if trials[2].SourceSeed(custom) == trials[4].SourceSeed(custom) {
		t.Error("custom label fixed despite vary-all default")
	}
}

func TestCollectVariesOnlyChosenSource(t *testing.T) {
	// A pipeline reading only fixed sources returns a constant; reading
	// the varied source returns a spread.
	fixedPipe := func(t Trial) (float64, error) {
		return xrand.New(t.SourceSeed(VarOrder)).Float64(), nil
	}
	variedPipe := func(t Trial) (float64, error) {
		return xrand.New(t.SourceSeed(VarInit)).Float64(), nil
	}
	base := Experiment{Sources: []Source{VarInit}, MaxRuns: 12, Seed: 9}

	e := base
	e.ATrial = fixedPipe
	scores, err := e.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 12 {
		t.Fatalf("collected %d measures", len(scores))
	}
	// Mean() rounding leaves ~1e-17 residue on identical values.
	if Summarize(scores).Std > 1e-12 {
		t.Error("fixed source leaked variance")
	}

	e = base
	e.ATrial = variedPipe
	scores, err = e.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(scores).Std < 1e-6 {
		t.Error("varied source produced no variance")
	}
}

func TestCollectProgress(t *testing.T) {
	var events []Progress
	e := Experiment{
		ATrial:   func(t Trial) (float64, error) { return 1, nil },
		MaxRuns:  20,
		Progress: func(p Progress) { events = append(events, p) },
	}
	if _, err := e.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 { // one per trial
		t.Fatalf("progress fired %d times, want 20", len(events))
	}
	for i, ev := range events {
		if ev != (Progress{Pairs: i + 1, MaxRuns: 20}) {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

func TestCollectParallelismInvariance(t *testing.T) {
	run := func(t Trial) (float64, error) {
		return xrand.New(t.Seed).Float64(), nil
	}
	e := Experiment{ATrial: run, MaxRuns: 32, Seed: 4, Parallelism: 1}
	s1, err := e.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e.Parallelism = 8
	s8, err := e.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s8) {
		t.Error("Collect differs across parallelism")
	}
}

func TestRunSingleNamedDataset(t *testing.T) {
	// One named dataset is still a single-dataset run: no γ adjustment,
	// and the Comparison convenience field is populated.
	e := Experiment{
		Datasets: []Dataset{{Name: "only", A: noisyRunner(1.0), B: noisyRunner(0.5)}},
		MaxRuns:  16,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparison.Conclusion != SignificantAndMeaningful {
		t.Errorf("Comparison not populated for single named dataset: %+v", res.Comparison)
	}
	if res.Comparison.Gamma != DefaultGamma {
		t.Errorf("γ adjusted for a single dataset: %v", res.Comparison.Gamma)
	}
	if res.StopReason == "" {
		t.Error("StopReason missing for single named dataset")
	}
	if res.Datasets[0].Name != "only" {
		t.Error("dataset name lost")
	}
}

func TestWithSeedZeroHonored(t *testing.T) {
	// The zero Seed field means "default 1", but an explicit WithSeed(0)
	// must survive defaulting (the bootstrap then runs from xrand.New(0)).
	var explicit Experiment
	WithSeed(0)(&explicit)
	cfg, err := explicit.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0 {
		t.Errorf("WithSeed(0) remapped to %d", cfg.Seed)
	}
	var unset Experiment
	cfg, err = unset.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 {
		t.Errorf("unset seed defaulted to %d, want 1", cfg.Seed)
	}
}

func TestExplicitZeroOptionsRejected(t *testing.T) {
	// Regression: an explicit WithGamma(0) must be rejected like any other
	// out-of-range γ (the zero *field* still means "use the default").
	a := []float64{1, 2, 3}
	if _, err := Analyze(a, a, WithGamma(0)); err == nil {
		t.Error("WithGamma(0) silently replaced by the default")
	}
	if _, err := Analyze(a, a, WithConfidence(0)); err == nil {
		t.Error("WithConfidence(0) silently replaced by the default")
	}
	if _, err := Analyze(a, a, WithBootstrap(-1)); err == nil {
		t.Error("WithBootstrap(-1) accepted")
	}
	if _, err := Analyze(a, a, WithGamma(0.8)); err != nil {
		t.Errorf("valid explicit options rejected: %v", err)
	}
}

func TestAnalyzeDatasetsHonorsProtocolOptions(t *testing.T) {
	// Regression: the multi-dataset path used to drop WithConfidence and
	// WithBootstrap, always bootstrapping at the 0.95/1000 defaults.
	// A weak effect, so the bootstrap distribution of P(A>B) has spread
	// (an overwhelming winner gives CI [1,1] at any confidence level).
	ds := syntheticDatasets(5, 3, 20, 0.2)
	narrow, err := AnalyzeDatasets(ds, WithConfidence(0.5), WithBootstrap(400))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := AnalyzeDatasets(ds, WithConfidence(0.999), WithBootstrap(400))
	if err != nil {
		t.Fatal(err)
	}
	for i := range narrow.Datasets {
		n, w := narrow.Datasets[i].Comparison, wide.Datasets[i].Comparison
		if w.CIHi-w.CILo <= n.CIHi-n.CILo {
			t.Errorf("dataset %d: confidence level ignored (0.5: [%v,%v], 0.999: [%v,%v])",
				i, n.CILo, n.CIHi, w.CILo, w.CIHi)
		}
	}
}

func TestCompareAcrossDatasetsGammaValidation(t *testing.T) {
	// Regression: the multi-dataset path used to skip the γ ∈ (0.5, 1)
	// check that the single-dataset path performs.
	ds := syntheticDatasets(1, 2, 10, 1.0)
	if _, err := AnalyzeDatasets(ds, WithGamma(0.4)); err == nil {
		t.Error("γ ≤ 0.5 accepted")
	}
	if _, err := AnalyzeDatasets(ds, WithGamma(1.0)); err == nil {
		t.Error("γ ≥ 1 accepted")
	}
	if _, err := AnalyzeDatasets(ds, WithGamma(math.NaN())); err == nil {
		t.Error("γ = NaN accepted")
	}
	if _, err := AnalyzeDatasets(ds, WithGamma(0.8)); err != nil {
		t.Errorf("valid γ rejected: %v", err)
	}
}
