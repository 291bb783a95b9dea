package compare_test

import (
	"reflect"
	"runtime"
	"testing"

	"varbench"
	"varbench/internal/xrand"
)

// Section 6's multi-dataset rule (Bonferroni-adjusted γ per dataset,
// Dror-style all-datasets acceptance, Demšar's Wilcoxon over per-dataset
// means) runs per dataset through this package's sharded P(A>B) test; the
// one entry point that combines the datasets is varbench.AnalyzeDatasets,
// which these tests drive.

func datasetsWithEffect(r *xrand.Source, nDatasets, nPairs int, diff float64) []varbench.DatasetScores {
	out := make([]varbench.DatasetScores, nDatasets)
	for d := range out {
		a := make([]float64, nPairs)
		b := make([]float64, nPairs)
		for i := range a {
			base := r.NormFloat64()
			a[i] = base + diff
			b[i] = base + 0.3*r.NormFloat64()
		}
		out[d] = varbench.DatasetScores{Name: string(rune('a' + d)), ScoresA: a, ScoresB: b}
	}
	return out
}

func TestAcrossDatasetsAcceptsUniformWinner(t *testing.T) {
	r := xrand.New(1)
	ds := datasetsWithEffect(r, 4, 40, 2.0)
	res, err := varbench.AnalyzeDatasets(ds, varbench.WithGamma(0.75), varbench.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMeaningful {
		t.Errorf("uniform dominance should be accepted: %+v", res.Datasets)
	}
	if res.WilcoxonP > 0.1 {
		t.Errorf("Wilcoxon p = %v, want small for uniform dominance", res.WilcoxonP)
	}
	// Adjusted γ must be stricter than the nominal one.
	if g := res.Datasets[0].Comparison.Gamma; g <= 0.75 {
		t.Errorf("adjusted γ = %v, want > 0.75", g)
	}
}

func TestAcrossDatasetsRejectsWhenOneDatasetFails(t *testing.T) {
	r := xrand.New(2)
	ds := datasetsWithEffect(r, 3, 40, 2.0)
	// Break the third dataset: no effect at all.
	for i := range ds[2].ScoresA {
		base := r.NormFloat64()
		ds[2].ScoresA[i] = base
		ds[2].ScoresB[i] = base + 0.3*r.NormFloat64()
	}
	res, err := varbench.AnalyzeDatasets(ds, varbench.WithGamma(0.75), varbench.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMeaningful {
		t.Error("one null dataset must block all-datasets acceptance")
	}
	if c := res.Datasets[0].Comparison.Conclusion; c != varbench.SignificantAndMeaningful {
		t.Errorf("winning dataset judged %s", c)
	}
}

func TestAcrossDatasetsNullControlled(t *testing.T) {
	r := xrand.New(3)
	ds := datasetsWithEffect(r, 4, 30, 0)
	res, err := varbench.AnalyzeDatasets(ds, varbench.WithGamma(0.75), varbench.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMeaningful {
		t.Error("null effect accepted across datasets")
	}
}

func TestAcrossDatasetsSmallCounts(t *testing.T) {
	r := xrand.New(4)
	// Two datasets: Wilcoxon is not applicable, must report p=1.
	ds := datasetsWithEffect(r, 2, 20, 1.5)
	res, err := varbench.AnalyzeDatasets(ds, varbench.WithGamma(0.75), varbench.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.WilcoxonP != 1 {
		t.Errorf("Wilcoxon with 2 datasets should be 1, got %v", res.WilcoxonP)
	}
	if _, err := varbench.AnalyzeDatasets(nil, varbench.WithGamma(0.75)); err == nil {
		t.Error("empty dataset list should error")
	}
}

func TestAcrossDatasetsShardedOrderAndWorkerInvariance(t *testing.T) {
	// A moderate effect on 100 pairs keeps the bootstrap CIs off their
	// bounds and finely resolved, so a dataset that drew another
	// dataset's stream would show it.
	r := xrand.New(5)
	ds := datasetsWithEffect(r, 3, 100, 0.5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// The per-dataset bootstrap shards over GOMAXPROCS workers; the
	// outcome must not depend on how many there are.
	runtime.GOMAXPROCS(1)
	ref, err := varbench.AnalyzeDatasets(ds, varbench.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	many, err := varbench.AnalyzeDatasets(ds, varbench.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, many) {
		t.Error("multi-dataset result depends on worker count")
	}
	// Per-dataset streams are keyed by (seed, name): shuffling the dataset
	// list permutes the outcomes without changing any of them.
	shuffled := []varbench.DatasetScores{ds[2], ds[0], ds[1]}
	perm, err := varbench.AnalyzeDatasets(shuffled, varbench.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]varbench.Comparison{}
	for _, d := range perm.Datasets {
		byName[d.Name] = d.Comparison
	}
	for _, d := range ref.Datasets {
		if got := byName[d.Name]; got != d.Comparison {
			t.Errorf("dataset %s changed under reordering:\n %+v\n %+v", d.Name, got, d.Comparison)
		}
	}
	if !ref.AllMeaningful {
		t.Errorf("uniform winner rejected: %+v", ref.Datasets)
	}
}
