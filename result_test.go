package varbench

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func clearResult(t *testing.T) *Result {
	t.Helper()
	e := Experiment{A: noisyRunner(1.0), B: noisyRunner(0.5), MaxRuns: 32}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTextRenderer(t *testing.T) {
	res := clearResult(t)
	out := res.String()
	for _, want := range []string{"P(A>B)", "significant and meaningful", "conclusion", "runs:"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, TextRenderer{Scores: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "score 0:") {
		t.Error("Scores flag did not list measurements")
	}
	// nil renderer falls back to text.
	buf.Reset()
	if err := res.Render(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("nil renderer produced nothing")
	}
}

func TestJSONRenderer(t *testing.T) {
	res := clearResult(t)
	var buf bytes.Buffer
	if err := res.Render(&buf, JSONRenderer{Indent: true}); err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Comparison != res.Comparison {
		t.Error("comparison did not round-trip through JSON")
	}
	if decoded.Pairs != res.Pairs || decoded.StopReason != res.StopReason {
		t.Error("bookkeeping did not round-trip through JSON")
	}
}

func TestCSVRenderer(t *testing.T) {
	e := Experiment{
		Datasets: []Dataset{
			{Name: "d1", A: noisyRunner(0.9), B: noisyRunner(0.6)},
			{Name: "d2", A: noisyRunner(0.8), B: noisyRunner(0.5)},
		},
		MaxRuns: 16,
	}
	res, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, CSVRenderer{}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v", err)
	}
	if len(rows) != 3 { // header + 2 datasets
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0][1] != "dataset" || rows[1][1] != "d1" || rows[2][1] != "d2" {
		t.Errorf("dataset column wrong: %v", rows)
	}
}

func TestCSVRendererFullPrecision(t *testing.T) {
	// Machine-readable output must not round through the display
	// formatter: a mean with >4 significant digits survives intact.
	scores := []float64{0.8413725, 0.8413725, 0.8413725}
	res, err := Analyze(scores, []float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf, CSVRenderer{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.8413725") {
		t.Errorf("CSV rounded the mean:\n%s", buf.String())
	}
}

func TestAnalyzeUnpaired(t *testing.T) {
	a := []float64{5, 6, 7, 8, 9}
	b := []float64{1, 2, 3}
	res, err := Analyze(a, b, WithUnpaired())
	if err != nil {
		t.Fatal(err)
	}
	if res.Comparison.N != 3 {
		t.Errorf("unpaired N = %d, want 3", res.Comparison.N)
	}
	if _, err := Analyze(a, b); err == nil {
		t.Error("length mismatch accepted without WithUnpaired")
	}
}

// TestPairedOnlyEntryPointsRejectUnpaired: AnalyzeDatasets and NewStream
// only run the paired test, so WithUnpaired must fail there, naming
// Analyze, instead of being ignored.
func TestPairedOnlyEntryPointsRejectUnpaired(t *testing.T) {
	a := []float64{5, 6, 7, 8, 9}
	b := []float64{4, 6.5, 3, 7.5, 2}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"AnalyzeDatasets/equal-lengths", func() error {
			_, err := AnalyzeDatasets([]DatasetScores{{ScoresA: a, ScoresB: b}}, WithUnpaired())
			return err
		}},
		{"AnalyzeDatasets/unequal-lengths", func() error {
			_, err := AnalyzeDatasets([]DatasetScores{{ScoresA: a, ScoresB: b[:4]}}, WithUnpaired())
			return err
		}},
		{"NewStream", func() error {
			_, err := NewStream(WithUnpaired())
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.call()
			if err == nil || !strings.Contains(err.Error(), "use Analyze") {
				t.Errorf("WithUnpaired: err = %v, want one naming Analyze", err)
			}
		})
	}
	if _, err := Analyze(a, b[:4], WithUnpaired()); err != nil {
		t.Errorf("Analyze rejected unpaired scores: %v", err)
	}
}

func TestAnalyzeDatasetsSingle(t *testing.T) {
	// One dataset: no γ adjustment, and the Comparison convenience field
	// is populated like every other single-dataset result.
	res, err := AnalyzeDatasets(syntheticDatasets(3, 1, 30, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Multi() {
		t.Fatal("one dataset reported as multi")
	}
	if res.Comparison.Conclusion != SignificantAndMeaningful {
		t.Errorf("Comparison not populated: %+v", res.Comparison)
	}
	if res.Comparison.Gamma != DefaultGamma {
		t.Errorf("γ adjusted for a single dataset: %v", res.Comparison.Gamma)
	}
}

func TestAnalyzeDatasetsRenderable(t *testing.T) {
	res, err := AnalyzeDatasets(syntheticDatasets(1, 3, 30, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Multi() {
		t.Fatal("three datasets should be a multi result")
	}
	if !res.AllMeaningful {
		t.Errorf("uniform winner rejected: %+v", res.Datasets)
	}
	out := res.String()
	if !strings.Contains(out, "Dror") || !strings.Contains(out, "Wilcoxon") {
		t.Errorf("multi-dataset text output incomplete:\n%s", out)
	}
}
