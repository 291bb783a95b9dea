package estimator

import (
	"math"
	"testing"

	"varbench/internal/casestudy"
	"varbench/internal/hpo"
	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func TestSourceMeasuresVaryOnlyWhenSourceVaries(t *testing.T) {
	task := casestudy.Tiny(1)
	p := task.Defaults()
	measures, err := SourceMeasures(task, p, xrand.VarInit, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(measures) != 5 {
		t.Fatalf("got %d measures", len(measures))
	}
	// Deterministic: same call gives identical results.
	again, err := SourceMeasures(task, p, xrand.VarInit, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range measures {
		if measures[i] != again[i] {
			t.Fatal("SourceMeasures not reproducible")
		}
		if measures[i] < 0 || measures[i] > 1 {
			t.Fatalf("measure %v out of [0,1]", measures[i])
		}
	}
	if stats.Std(measures) == 0 {
		t.Error("varying init produced identical performances — source not wired")
	}
}

func TestSourceMeasuresRejectsTinyN(t *testing.T) {
	task := casestudy.Tiny(1)
	if _, err := SourceMeasures(task, task.Defaults(), xrand.VarInit, 1, 1); err == nil {
		t.Fatal("n=1 should error")
	}
}

func TestDataSourceDominatesInit(t *testing.T) {
	// The headline of Figure 1: data-split variance ≥ init variance.
	// Uses the tiny task with enough seeds for a stable comparison.
	task := casestudy.Tiny(1)
	p := task.Defaults()
	dataM, err := SourceMeasures(task, p, xrand.VarDataSplit, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	initM, err := SourceMeasures(task, p, xrand.VarInit, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	sdData, sdInit := stats.Std(dataM), stats.Std(initM)
	t.Logf("std(data)=%v std(init)=%v", sdData, sdInit)
	if sdData < sdInit*0.8 {
		t.Errorf("data-split std %v unexpectedly below init std %v", sdData, sdInit)
	}
}

func TestNumericalNoiseSmallest(t *testing.T) {
	task := casestudy.Tiny(1)
	p := task.Defaults()
	numM, err := SourceMeasures(task, p, NumericalNoise, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	dataM, err := SourceMeasures(task, p, xrand.VarDataSplit, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Std(numM) > stats.Std(dataM) {
		t.Errorf("numerical noise std %v exceeds data std %v",
			stats.Std(numM), stats.Std(dataM))
	}
}

func TestHOptMeasures(t *testing.T) {
	task := casestudy.Tiny(1)
	m, err := HOptMeasures(task, hpo.RandomSearch{}, 4, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Fatalf("got %d measures", len(m))
	}
	if stats.Std(m) == 0 {
		t.Error("HOpt variance exactly zero — ξH not wired through")
	}
}

func TestIdealEstProducesIndependentMeasures(t *testing.T) {
	task := casestudy.Tiny(1)
	m, err := IdealEst(task, hpo.RandomSearch{}, 3, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 6 {
		t.Fatalf("got %d measures", len(m))
	}
	if stats.Std(m) == 0 {
		t.Error("ideal estimator measures identical")
	}
	if _, err := IdealEst(task, hpo.RandomSearch{}, 3, 0, 5); err == nil {
		t.Error("k=0 should error")
	}
}

func TestFixHOptEstSubsets(t *testing.T) {
	task := casestudy.Tiny(1)
	for _, sub := range []Subset{SubsetInit, SubsetData, SubsetAll} {
		m, err := FixHOptEst(task, hpo.RandomSearch{}, 4, 5, sub, 9)
		if err != nil {
			t.Fatalf("%v: %v", sub, err)
		}
		if len(m) != 5 {
			t.Fatalf("%v: got %d measures", sub, len(m))
		}
		if stats.Std(m) == 0 {
			t.Errorf("%v: no variation across measures", sub)
		}
	}
}

func TestSubsetVars(t *testing.T) {
	if len(SubsetInit.Vars()) != 1 || SubsetInit.Vars()[0] != xrand.VarInit {
		t.Error("SubsetInit vars wrong")
	}
	if len(SubsetData.Vars()) != 1 || SubsetData.Vars()[0] != xrand.VarDataSplit {
		t.Error("SubsetData vars wrong")
	}
	if len(SubsetAll.Vars()) != len(xrand.LearningVars()) {
		t.Error("SubsetAll should cover all learning vars")
	}
	if SubsetAll.String() != "FixHOptEst(k,All)" {
		t.Errorf("label = %q", SubsetAll.String())
	}
}

func TestAllSubsetBeatsInitSubset(t *testing.T) {
	// The core Section 3.3 result: randomizing more sources decorrelates the
	// biased estimator's measures and shrinks Var(μ̃(k)).
	if testing.Short() {
		t.Skip("integration experiment")
	}
	task := casestudy.Tiny(1)
	const reps, k, budget = 8, 12, 4
	collect := func(sub Subset) [][]float64 {
		rows := make([][]float64, reps)
		for r := 0; r < reps; r++ {
			m, err := FixHOptEst(task, hpo.RandomSearch{}, budget, k, sub, uint64(100+r))
			if err != nil {
				t.Fatal(err)
			}
			rows[r] = m
		}
		return rows
	}
	ks := []int{k}
	initCurve, err := BiasedCurve("init", collect(SubsetInit), ks)
	if err != nil {
		t.Fatal(err)
	}
	allCurve, err := BiasedCurve("all", collect(SubsetAll), ks)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("std init=%v all=%v", initCurve.Std[0], allCurve.Std[0])
	if allCurve.Std[0] > initCurve.Std[0]*1.15 {
		t.Errorf("FixHOpt(All) std %v should not exceed FixHOpt(Init) std %v",
			allCurve.Std[0], initCurve.Std[0])
	}
}

func TestIdealCurveAnalytic(t *testing.T) {
	measures := []float64{1, 2, 3, 4, 5}
	sigma := stats.Std(measures)
	c := IdealCurve(measures, []int{1, 4, 25})
	if c.Std[0] != sigma {
		t.Error("k=1 std should equal σ")
	}
	if math.Abs(c.Std[1]-sigma/2) > 1e-12 {
		t.Error("k=4 std should be σ/2")
	}
	if math.Abs(c.Std[2]-sigma/5) > 1e-12 {
		t.Error("k=25 std should be σ/5")
	}
	for i := 1; i < len(c.Std); i++ {
		if c.Std[i] >= c.Std[i-1] {
			t.Error("ideal curve must decrease")
		}
	}
}

func TestBiasedCurveSyntheticCorrelation(t *testing.T) {
	// Realizations with a strong shared bias per row: Var(μ̃(k)) should
	// plateau near Var(bias) instead of decaying 1/k (Equation 7).
	r := xrand.New(1)
	const reps, kmax = 200, 50
	rows := make([][]float64, reps)
	for i := range rows {
		b := r.NormFloat64() // per-realization bias, σ²=1
		rows[i] = make([]float64, kmax)
		for j := range rows[i] {
			rows[i][j] = b + 0.3*r.NormFloat64()
		}
	}
	c, err := BiasedCurve("corr", rows, []int{1, kmax})
	if err != nil {
		t.Fatal(err)
	}
	// At k=1: std ≈ sqrt(1+0.09) ≈ 1.044. At k=50: std ≈ sqrt(1+0.09/50) ≈ 1.
	if math.Abs(c.Std[0]-1.044) > 0.12 {
		t.Errorf("k=1 std = %v, want ≈1.044", c.Std[0])
	}
	if math.Abs(c.Std[1]-1.0) > 0.12 {
		t.Errorf("k=50 std = %v, want ≈1 (plateau)", c.Std[1])
	}
	// The plateau is far above the uncorrelated 1/√k prediction.
	if c.Std[1] < 0.5 {
		t.Error("correlated estimator should not decay like 1/√k")
	}
}

func TestBiasedCurveErrors(t *testing.T) {
	if _, err := BiasedCurve("x", [][]float64{{1, 2}}, []int{1}); err == nil {
		t.Error("single realization should error")
	}
	if _, err := BiasedCurve("x", [][]float64{{1, 2}, {1}}, []int{1}); err == nil {
		t.Error("ragged realizations should error")
	}
	if _, err := BiasedCurve("x", [][]float64{{1, 2}, {3, 4}}, []int{5}); err == nil {
		t.Error("k beyond kmax should error")
	}
}

func TestDecomposeSynthetic(t *testing.T) {
	// Biased rows: shared offset +0.5 from mu, within-noise 0.2, shared
	// bias noise 0.1.
	r := xrand.New(2)
	const reps, k = 400, 20
	rows := make([][]float64, reps)
	for i := range rows {
		b := 0.5 + 0.1*r.NormFloat64()
		rows[i] = make([]float64, k)
		for j := range rows[i] {
			rows[i][j] = b + 0.2*r.NormFloat64()
		}
	}
	d, err := Decompose("test", rows, 0 /* mu */)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Bias-0.5) > 0.03 {
		t.Errorf("bias = %v, want ≈0.5", d.Bias)
	}
	// Var(μ̃) = Var(b) + Var(noise)/k = 0.01 + 0.04/20 = 0.012.
	if math.Abs(d.Var-0.012) > 0.004 {
		t.Errorf("var = %v, want ≈0.012", d.Var)
	}
	// ρ = Var(b)/(Var(b)+Var(noise)) = 0.01/0.05 = 0.2.
	if math.Abs(d.Rho-0.2) > 0.06 {
		t.Errorf("rho = %v, want ≈0.2", d.Rho)
	}
	if math.Abs(d.MSE-(d.Var+d.Bias*d.Bias)) > 1e-12 {
		t.Error("MSE ≠ Var + Bias²")
	}
}

func TestDecomposeIdeal(t *testing.T) {
	m := []float64{0.1, 0.2, 0.3, 0.4}
	d := DecomposeIdeal(m, 4)
	if d.Bias != 0 || d.Rho != 0 {
		t.Error("ideal estimator must have zero bias and rho")
	}
	if math.Abs(d.Var-stats.Variance(m)/4) > 1e-12 {
		t.Error("ideal variance wrong")
	}
}

func TestEquivalentIdealK(t *testing.T) {
	// If biased std equals σ/√10, it is equivalent to 10 ideal samples.
	sigma := 2.0
	if got := EquivalentIdealK(sigma, sigma/math.Sqrt(10)); math.Abs(got-10) > 1e-9 {
		t.Errorf("EquivalentIdealK = %v, want 10", got)
	}
	if !math.IsInf(EquivalentIdealK(1, 0), 1) {
		t.Error("zero biased std should map to +Inf")
	}
}

func TestCostModelPaperNumbers(t *testing.T) {
	c := CostModel{K: 100, Budget: 200}
	if c.IdealTrainings() != 100*201 {
		t.Errorf("ideal trainings = %d", c.IdealTrainings())
	}
	if c.FixHOptTrainings() != 300 {
		t.Errorf("fixhopt trainings = %d", c.FixHOptTrainings())
	}
	// The paper reports a 51× wall-clock ratio (1070h vs 21h); the raw
	// training-count ratio at k=100, T=200 is ~67×. Same order of magnitude.
	if s := c.Speedup(); s < 50 || s > 80 {
		t.Errorf("speedup = %v, want ∈ [50, 80]", s)
	}
}

func TestKsThinning(t *testing.T) {
	ks := Ks(100, 10)
	if ks[0] != 1 || ks[len(ks)-1] != 100 {
		t.Errorf("Ks endpoints wrong: %v", ks)
	}
	if len(ks) > 11 {
		t.Errorf("Ks too long: %v", ks)
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Errorf("Ks not strictly increasing: %v", ks)
		}
	}
	full := Ks(5, 10)
	if len(full) != 5 {
		t.Errorf("small kmax should enumerate: %v", full)
	}
	if Ks(0, 3) != nil {
		t.Error("kmax=0 should be nil")
	}
}
