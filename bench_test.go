package varbench

// The benchmark harness: one benchmark per paper table/figure (regenerating
// the artifact at a reduced budget and reporting its headline quantity as a
// custom metric), ablation benchmarks for the design choices called out in
// DESIGN.md §5, and micro-benchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-scale budgets are available through cmd/varbench (without -quick).

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"varbench/internal/casestudy"
	"varbench/internal/compare"
	"varbench/internal/data"
	"varbench/internal/estimator"
	"varbench/internal/experiments"
	"varbench/internal/gp"
	"varbench/internal/hpo"
	"varbench/internal/nn"
	"varbench/internal/pipeline"
	"varbench/internal/simulate"
	"varbench/internal/stats"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// benchBudget keeps figure benchmarks to a few seconds per iteration.
func benchBudget() experiments.Budget {
	return experiments.Budget{
		SeedsPerSource:       8,
		HOptRepetitions:      3,
		HOptBudget:           4,
		KMax:                 6,
		EstimatorRepetitions: 3,
		SimulationsPerPoint:  60,
	}
}

func benchStudies() []*casestudy.Study {
	return []*casestudy.Study{casestudy.Tiny(1)}
}

// --- Figure/table benchmarks -------------------------------------------

func BenchmarkFig1VarianceSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchStudies(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Tasks[0].BootstrapStd(), "bootstrap-std")
	}
}

func BenchmarkFig2BinomialModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(benchStudies(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		t := res.Tasks[0]
		b.ReportMetric(t.ObservedStd/t.ModelStd, "observed/model")
	}
}

func BenchmarkFig3SOTAAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(map[string]float64{"cifar10": 0.3, "sst2": 0.6}, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DeltaCoefficient, "delta-coef")
	}
}

func BenchmarkFig5Estimators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchStudies(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		sigma2, _, _ := res.Tasks[0].SimulationModel()
		b.ReportMetric(sigma2, "sigma2")
	}
}

func BenchmarkFigH5Decomposition(b *testing.B) {
	budget := benchBudget()
	res, err := experiments.Fig5(benchStudies(), budget, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decs, err := res.Tasks[0].Decompositions(budget.KMax)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(decs[1].MSE, "fixhopt-init-mse")
	}
}

func BenchmarkFig6DetectionRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(experiments.DefaultModelStats(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.FalseNegative["prob-outperform/ideal"], "pab-fn")
		b.ReportMetric(res.Summary.FalsePositive["single-point/ideal"], "single-fp")
	}
}

func BenchmarkFigC1SampleSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.FigC1(0.05, 0.05)
		b.ReportMetric(float64(res.Recommended.N), "recommended-n")
	}
}

func BenchmarkFigF2HPOCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigF2(benchStudies(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		c := res.Tasks[0].Curves[0]
		b.ReportMetric(c.ValidMean[len(c.ValidMean)-1], "final-valid-err")
	}
}

func BenchmarkFigG3Normality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigG3(benchStudies(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NormalShare(), "normal-share")
	}
}

func BenchmarkFigI6Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FigI6(experiments.DefaultModelStats(), benchBudget(), uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		pts := res.BySampleSize[0.8]
		b.ReportMetric(pts[len(pts)-1].Rates["prob-outperform"], "pab-power-p08")
	}
}

func BenchmarkTable8MHCComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table8(uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AUC, "mlp-mhc-auc")
	}
}

// --- Ablation benchmarks (DESIGN.md §5) --------------------------------

// BenchmarkAblationPairing quantifies the power gained by pairing (Appendix
// C.2): detection rate of the PAB test on paired vs independently drawn
// measures with a shared noise component.
func BenchmarkAblationPairing(b *testing.B) {
	r := xrand.New(1)
	const n, sims = 29, 100
	run := func(paired bool) float64 {
		detect := 0
		for s := 0; s < sims; s++ {
			pairs := make([]stats.Pair, n)
			for i := range pairs {
				shared := r.NormFloat64() * 0.05 // split noise, shared when paired
				sharedB := shared
				if !paired {
					sharedB = r.NormFloat64() * 0.05
				}
				pairs[i] = stats.Pair{
					A: 0.012 + shared + 0.01*r.NormFloat64(),
					B: sharedB + 0.01*r.NormFloat64(),
				}
			}
			if (compare.PAB{Bootstrap: 200}).Detects(pairs, r) {
				detect++
			}
		}
		return float64(detect) / sims
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "paired-power")
		b.ReportMetric(run(false), "unpaired-power")
	}
}

// BenchmarkAblationResampling contrasts out-of-bootstrap with k-fold
// cross-validation as the data-sampling probe (Appendix B). The fold count
// is chosen so that CV test folds match the bootstrap test size, otherwise
// the comparison is confounded by test-set size; the remaining difference is
// the correlation induced by CV's overlapping training sets.
func BenchmarkAblationResampling(b *testing.B) {
	task := casestudy.Tiny(1)
	p := task.Defaults()
	for i := 0; i < b.N; i++ {
		// Out-of-bootstrap variance over 10 resamples (test size 80).
		boot, err := estimator.SourceMeasures(task, p, xrand.VarDataSplit, 10, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		// 5-fold CV on one fixed pool (test folds ≈ 76).
		split, err := task.Split(xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		pool, err := data.Concat(split.Train, split.Test)
		if err != nil {
			b.Fatal(err)
		}
		folds, err := data.KFold(pool.N(), 5, xrand.New(uint64(i)+7))
		if err != nil {
			b.Fatal(err)
		}
		var cv []float64
		for _, fold := range folds {
			streams := xrand.NewStreams(uint64(i))
			cfg, err := task.Build(p)
			if err != nil {
				b.Fatal(err)
			}
			res, err := nn.Train(cfg, pool.Subset(fold[0]), streams)
			if err != nil {
				b.Fatal(err)
			}
			cv = append(cv, task.Measure(res.Model, pool.Subset(fold[1])))
		}
		b.ReportMetric(stats.Std(boot), "bootstrap-std")
		b.ReportMetric(stats.Std(cv), "cv-std")
	}
}

// BenchmarkAblationCI compares the percentile-bootstrap CI against the
// normal-approximation CI for P(A>B), reporting coverage of the true value.
func BenchmarkAblationCI(b *testing.B) {
	r := xrand.New(2)
	const n, sims = 29, 150
	trueP := 0.75
	diff := simulate.MeanDiffForPAB(trueP, 1)
	for i := 0; i < b.N; i++ {
		bootHit, normHit := 0, 0
		for s := 0; s < sims; s++ {
			pairs := make([]stats.Pair, n)
			a := make([]float64, n)
			bb := make([]float64, n)
			for j := range pairs {
				a[j] = r.Normal(diff, 1)
				bb[j] = r.Normal(0, 1)
				pairs[j] = stats.Pair{A: a[j], B: bb[j]}
			}
			est := stats.PairedPAB(a, bb)
			ci := stats.PairedPercentileBootstrap(pairs, func(p []stats.Pair) float64 {
				av := make([]float64, len(p))
				bv := make([]float64, len(p))
				for k, pr := range p {
					av[k], bv[k] = pr.A, pr.B
				}
				return stats.PairedPAB(av, bv)
			}, 300, 0.95, r)
			if ci.Contains(trueP) {
				bootHit++
			}
			se := 1 / (2 * float64(n)) // placeholder scale; replaced below
			_ = se
			normCI := stats.NormalCI(est, stdErrPAB(est, n), 0.95)
			if normCI.Contains(trueP) {
				normHit++
			}
		}
		b.ReportMetric(float64(bootHit)/sims, "bootstrap-coverage")
		b.ReportMetric(float64(normHit)/sims, "normal-coverage")
	}
}

// stdErrPAB is the binomial-style standard error of a proportion.
func stdErrPAB(p float64, n int) float64 {
	if p <= 0 || p >= 1 {
		p = 0.5
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// BenchmarkAblationStratification contrasts stratified vs plain bootstrap on
// the balanced image task: stratification removes class-imbalance noise from
// the test sets.
func BenchmarkAblationStratification(b *testing.B) {
	task := casestudy.CIFAR10VGG11(experiments.StructSeed)
	p := task.Defaults()
	for i := 0; i < b.N; i++ {
		strat, err := estimator.SourceMeasures(task, p, xrand.VarDataSplit, 6, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(stats.Std(strat), "stratified-std")
	}
}

// BenchmarkAblationSHA compares successive halving (continuation-based,
// using the resumable trainer) against random search at an equal total
// epoch budget, reporting the achieved validation error of each.
func BenchmarkAblationSHA(b *testing.B) {
	task := casestudy.Tiny(1)
	for i := 0; i < b.N; i++ {
		streams := xrand.NewStreams(uint64(i))
		split, err := task.Split(streams.Get(xrand.VarDataSplit))
		if err != nil {
			b.Fatal(err)
		}
		obj := pipeline.BudgetedObjective(task, split, streams)
		sha := hpo.SuccessiveHalving{Eta: 3, MinBudget: 1, MaxBudget: 9}
		hist, err := sha.Optimize(obj, task.Space(), 9, streams.Get(xrand.VarHOpt))
		if err != nil {
			b.Fatal(err)
		}
		shaBest, _ := hist.Best()

		// Random search with the same total epoch budget (27 epochs → 4
		// full 6-epoch trainings).
		rsStreams := xrand.NewStreams(uint64(i))
		rsSplit, err := task.Split(rsStreams.Get(xrand.VarDataSplit))
		if err != nil {
			b.Fatal(err)
		}
		rsObj := func(p hpo.Params) float64 {
			perf, err := pipeline.TrainEval(task, p, rsSplit.Train, rsSplit.Valid, rsStreams.Clone())
			if err != nil {
				return 1
			}
			return 1 - perf
		}
		rsHist, err := hpo.RandomSearch{}.Optimize(rsObj, task.Space(), 4,
			rsStreams.Get(xrand.VarHOpt))
		if err != nil {
			b.Fatal(err)
		}
		rsBest, _ := rsHist.Best()
		b.ReportMetric(shaBest.Value, "sha-valid-err")
		b.ReportMetric(rsBest.Value, "random-valid-err")
	}
}

// BenchmarkAblationGamma sweeps the meaningfulness threshold (Appendix I).
func BenchmarkAblationGamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := simulate.GammaSweep(
			simulate.Config{NSim: 100, Bootstrap: 150, K: 50},
			simulate.Model{Sigma2: 0.0004}, 0.8,
			[]float64{0.65, 0.75, 0.85}, xrand.New(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].Rates["prob-outperform"], "pab-rate-g075")
	}
}

// --- Substrate micro-benchmarks ----------------------------------------

func BenchmarkMatMul128(b *testing.B) {
	r := xrand.New(1)
	a := tensor.NewMatrix(128, 128)
	c := tensor.NewMatrix(128, 128)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		c.Data[i] = r.NormFloat64()
	}
	out := tensor.NewMatrix(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, c)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	r := xrand.New(2)
	m := tensor.NewMatrix(64, 64)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	spd := tensor.MatMulT(m, m)
	for i := 0; i < 64; i++ {
		spd.Set(i, i, spd.At(i, i)+64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tensor.Cholesky(spd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainingEpoch(b *testing.B) {
	task := casestudy.Tiny(1)
	split, err := task.Split(xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := task.Build(task.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(cfg, split.Train, xrand.NewStreams(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootstrapSplit(b *testing.B) {
	task := casestudy.Tiny(1)
	r := xrand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Split(r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMannWhitney(b *testing.B) {
	r := xrand.New(4)
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.MannWhitney(x, y, stats.TwoTailed)
	}
}

func BenchmarkShapiroWilk(b *testing.B) {
	r := xrand.New(5)
	x := make([]float64, 200)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stats.ShapiroWilk(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPercentileBootstrap(b *testing.B) {
	r := xrand.New(6)
	pairs := make([]stats.Pair, 50)
	for i := range pairs {
		pairs[i] = stats.Pair{A: r.NormFloat64() + 0.3, B: r.NormFloat64()}
	}
	crit := compare.PAB{Bootstrap: 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := crit.Evaluate(pairs, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPFitPredict(b *testing.B) {
	r := xrand.New(7)
	n := 40
	x := tensor.NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, r.Float64())
		}
		y[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := gp.Fit(x, y, gp.RBF{LengthScale: 0.3, Variance: 1}, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		g.Predict([]float64{0.5, 0.5, 0.5})
	}
}

func BenchmarkBayesOptIteration(b *testing.B) {
	obj := func(p hpo.Params) float64 {
		d := p["x"] - 0.3
		return d * d
	}
	space := hpo.Space{{Name: "x", Lo: 0, Hi: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (hpo.BayesOpt{InitRandom: 5, Candidates: 64}).Optimize(
			obj, space, 15, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRun(b *testing.B) {
	task := casestudy.Tiny(1)
	for i := 0; i < b.N; i++ {
		if _, err := estimator.FixHOptEst(task, hpo.RandomSearch{}, 3, 3,
			estimator.SubsetAll, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel analysis-engine benchmarks (PR 2 perf trajectory) ---------

// BenchmarkBatchedAnalysis measures the batched-analysis hot path: the
// recommended test (K=1000 bootstrap over n=29 pairs) exactly as the
// early-stop loop re-runs it at every batch boundary, at 1 analysis worker
// (serial reference) vs GOMAXPROCS sharded workers, once each: at
// GOMAXPROCS=1 the two are the same configuration.
func BenchmarkBatchedAnalysis(b *testing.B) {
	r := xrand.New(8)
	n := 29
	a := make([]float64, n)
	bb := make([]float64, n)
	for i := range a {
		base := r.NormFloat64()
		a[i] = base + 0.5
		bb[i] = base + 0.3*r.NormFloat64()
	}
	for _, workers := range slices.Compact([]int{1, runtime.GOMAXPROCS(0)}) {
		b.Run(fmt.Sprintf("analysis-workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(a, bb, WithSeed(uint64(i+1)), WithAnalysisParallelism(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollectionLazyTrials pins the collection-memory fix: an
// early-stopped experiment with a huge MaxRuns must allocate per collected
// batch, not per MaxRuns — before the lazy trial stream, the 1<<20 cap
// below meant ~1M Trial structs plus seed maps up front (B/op exploded
// with the cap; now it is flat).
func BenchmarkCollectionLazyTrials(b *testing.B) {
	for _, maxRuns := range []int{64, 1 << 20} {
		b.Run(fmt.Sprintf("maxruns-%d", maxRuns), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := Experiment{
					A:       func(seed uint64) (float64, error) { return 1, nil },
					B:       func(seed uint64) (float64, error) { return 0, nil },
					Seed:    uint64(i + 1),
					MaxRuns: maxRuns,
				}
				res, err := e.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if !res.EarlyStopped {
					b.Fatal("expected early stop")
				}
			}
		})
	}
}

// BenchmarkMultiDatasetCollection contrasts the concurrent multi-dataset
// engine against per-dataset cost: 4 datasets whose pipelines sleep-free
// compute keeps the benchmark deterministic; wall-clock gains show up once
// RunFuncs do real work.
func BenchmarkMultiDatasetCollection(b *testing.B) {
	datasets := []Dataset{
		{Name: "d1", A: noisyRunner(0.9), B: noisyRunner(0.6)},
		{Name: "d2", A: noisyRunner(0.8), B: noisyRunner(0.5)},
		{Name: "d3", A: noisyRunner(0.7), B: noisyRunner(0.4)},
		{Name: "d4", A: noisyRunner(0.6), B: noisyRunner(0.3)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := Experiment{Datasets: datasets, Seed: uint64(i + 1), MaxRuns: 24}
		if _, err := e.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkRender io.Writer = io.Discard

func BenchmarkRenderFig1(b *testing.B) {
	res, err := experiments.Fig1(benchStudies(), benchBudget(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := res.Render(sinkRender); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGuardTrial is hoisted so the no-fault benchmark measures the guard
// machinery, not a per-iteration closure allocation.
var benchGuardTrial TrialFunc = func(tr Trial) (float64, error) {
	return float64(tr.Seed%1000) * 1e-3, nil
}

var sinkScore float64

// BenchmarkRetryNoFault is the resilience layer's overhead gate: resolving
// a healthy trial through the full guard stack — cache lookup, panic
// recovery, retry bookkeeping — must stay allocation-free, so experiments
// that never fault pay nothing for the machinery.
func BenchmarkRetryNoFault(b *testing.B) {
	g := &guard{
		retry: RetryPolicy{MaxAttempts: 3}.normalized(),
		sleep: sleepCtx,
	}
	ctx := context.Background()
	var cache *trialCache // always-miss: every iteration runs the pipeline
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, f, err := cache.resolve(ctx, g, Trial{Index: i, Seed: uint64(i)}, "A", benchGuardTrial, "")
		if err != nil || f != nil {
			b.Fatal(err, f)
		}
		sinkScore += v
	}
}

// BenchmarkRetryBackoffSchedule measures computing one deterministic
// backoff pause — the seeded split plus jitter draw — which sits on every
// retry between attempts.
func BenchmarkRetryBackoffSchedule(b *testing.B) {
	p := RetryPolicy{MaxAttempts: 8}.normalized()
	b.ReportAllocs()
	var d time.Duration
	for i := 0; i < b.N; i++ {
		d += p.Backoff(uint64(i), 1+i%7)
	}
	sinkScore += float64(d)
}
