package varbench

import (
	"testing"

	"varbench/internal/xrand"
)

func syntheticDatasets(seed uint64, nDatasets, n int, diff float64) []DatasetScores {
	r := xrand.New(seed)
	out := make([]DatasetScores, nDatasets)
	for d := range out {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			base := r.NormFloat64()
			a[i] = base + diff
			b[i] = base + 0.3*r.NormFloat64()
		}
		out[d] = DatasetScores{Name: string(rune('A' + d)), ScoresA: a, ScoresB: b}
	}
	return out
}

func TestCompareAcrossDatasetsWinner(t *testing.T) {
	res, err := AnalyzeDatasets(syntheticDatasets(1, 4, 40, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMeaningful {
		t.Errorf("uniform winner rejected: %+v", res.Datasets)
	}
	if res.WilcoxonP > 0.1 {
		t.Errorf("Wilcoxon p = %v", res.WilcoxonP)
	}
	if len(res.Datasets) != 4 || res.Datasets[3].Name != "D" {
		t.Error("per-dataset bookkeeping wrong")
	}
	// Adjusted γ stricter than default.
	if g := res.Datasets[0].Comparison.Gamma; g <= DefaultGamma {
		t.Errorf("adjusted γ = %v", g)
	}
}

func TestCompareAcrossDatasetsNull(t *testing.T) {
	res, err := AnalyzeDatasets(syntheticDatasets(2, 3, 30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMeaningful {
		t.Error("null accepted across datasets")
	}
}

func TestCompareAcrossDatasetsErrors(t *testing.T) {
	bad := []DatasetScores{{Name: "x", ScoresA: []float64{1}, ScoresB: []float64{1, 2}}}
	if _, err := AnalyzeDatasets(bad); err == nil {
		t.Error("unpaired dataset accepted")
	}
	if _, err := AnalyzeDatasets(nil); err == nil {
		t.Error("empty dataset list accepted")
	}
}
