package varbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	"varbench/internal/compare"
	"varbench/internal/jsonx"
	"varbench/internal/report"
	"varbench/internal/stats"
)

// The report types marshal through jsonx so that NaN and ±Inf float fields
// — an undefined Shapiro-Wilk p-value, a degenerate correlation, a
// non-finite pipeline score — encode as JSON null instead of failing the
// whole document: encoding/json rejects non-finite values outright with
// "json: unsupported value: NaN". Decoding null back into a float64 field
// leaves it at zero, per the encoding/json null rule.

// Conclusion is the three-zone outcome of the recommended test.
type Conclusion string

// The possible conclusions.
const (
	// NotSignificant: the difference could be noise alone; collect more
	// measurements or treat the algorithms as equivalent.
	NotSignificant Conclusion = "not significant"
	// SignificantNotMeaningful: a real but practically negligible
	// difference (P(A>B) below γ).
	SignificantNotMeaningful Conclusion = "significant but not meaningful"
	// SignificantAndMeaningful: algorithm A reliably outperforms B.
	SignificantAndMeaningful Conclusion = "significant and meaningful"
)

// Comparison is the result of the recommended statistical protocol.
type Comparison struct {
	// MeanA, MeanB are the average performances.
	MeanA float64 `json:"mean_a"`
	MeanB float64 `json:"mean_b"`
	// PAB is the estimated probability that A outperforms B on one run
	// (ties counted half) — Equation 9.
	PAB float64 `json:"pab"`
	// CILo, CIHi bound PAB with a percentile-bootstrap confidence interval:
	// for paired scores its exact limit over infinitely many resamples.
	CILo float64 `json:"ci_lo"`
	CIHi float64 `json:"ci_hi"`
	// Gamma is the meaningfulness threshold the conclusion used.
	Gamma float64 `json:"gamma"`
	// Conclusion is the three-zone decision of Appendix C.6.
	Conclusion Conclusion `json:"conclusion"`
	// RecommendedN is Noether's minimal sample size for this γ at
	// α=β=0.05; if fewer pairs were supplied, the comparison is
	// underpowered and NotSignificant outcomes are inconclusive.
	RecommendedN int `json:"recommended_n"`
	// N is the number of pairs actually used.
	N int `json:"n"`
}

// MarshalJSON implements json.Marshaler, encoding non-finite float fields
// as null.
func (c Comparison) MarshalJSON() ([]byte, error) {
	type alias Comparison // drops methods: no recursion
	return jsonx.Marshal(alias(c))
}

// String renders the comparison in one line.
func (c Comparison) String() string {
	return fmt.Sprintf(
		"P(A>B)=%.3f CI[%.3f, %.3f] γ=%.2f n=%d (recommended ≥%d): %s",
		c.PAB, c.CILo, c.CIHi, c.Gamma, c.N, c.RecommendedN, c.Conclusion)
}

// StopReason records why collection ended.
type StopReason string

// The collection stop reasons.
const (
	// StopNoetherN: Noether's recommended sample size was reached before
	// MaxRuns (EarlyStopAuto); the test is fully powered for the chosen γ.
	StopNoetherN StopReason = "noether-n"
	// StopMaxRuns: the MaxRuns cap was reached.
	StopMaxRuns StopReason = "max-runs"
)

// DatasetResult is the outcome of one dataset's collection and test.
type DatasetResult struct {
	Name       string     `json:"name,omitempty"`
	Comparison Comparison `json:"comparison"`
	// ScoresA and ScoresB hold the scores the test analysed. A Stream's
	// results carry none: a stream keeps no score history.
	ScoresA      []float64  `json:"scores_a,omitempty"`
	ScoresB      []float64  `json:"scores_b,omitempty"`
	Pairs        int        `json:"pairs"`
	EarlyStopped bool       `json:"early_stopped"`
	StopReason   StopReason `json:"stop_reason,omitempty"`
	// Failures lists the trials quarantined during collection, in trial
	// order. Only non-empty in quarantine mode (FailFast false); the
	// quarantined pairs are excluded from Pairs and from the analysis.
	Failures []TrialFailure `json:"failures,omitempty"`
}

// MarshalJSON implements json.Marshaler, encoding non-finite float fields
// (including non-finite scores) as null.
func (d DatasetResult) MarshalJSON() ([]byte, error) {
	type alias DatasetResult
	return jsonx.Marshal(alias(d))
}

// Result is the complete outcome of an Experiment (or of the score-level
// Analyze entry points). Render it with one of the Renderer implementations
// or read the fields directly.
type Result struct {
	// Name echoes the experiment label.
	Name string `json:"name,omitempty"`
	// Gamma is the (unadjusted) meaningfulness threshold of the spec.
	Gamma float64 `json:"gamma"`
	// Seed is the root seed the run derived all randomness from.
	Seed uint64 `json:"seed,omitempty"`
	// Comparison is the single-dataset conclusion; zero-valued when the
	// experiment spans multiple datasets (see Datasets).
	Comparison Comparison `json:"comparison"`
	// Datasets holds per-dataset outcomes; it has one entry for
	// single-dataset experiments. Multi-dataset comparisons are judged at
	// the Bonferroni-adjusted γ recorded in each entry's Comparison.Gamma.
	Datasets []DatasetResult `json:"datasets,omitempty"`
	// AllMeaningful is the Dror et al. (2017) replicability criterion: A
	// beats B significantly and meaningfully on every dataset. Only set
	// for multi-dataset experiments.
	AllMeaningful bool `json:"all_meaningful,omitempty"`
	// WilcoxonP is Demšar's (2006) signed-rank p-value over per-dataset
	// mean scores (one-sided; 1 when fewer than 3 datasets).
	WilcoxonP float64 `json:"wilcoxon_p"`
	// Pairs counts collected pairs across all datasets; Runs counts
	// pipeline executions (2 per pair).
	Pairs int `json:"pairs"`
	Runs  int `json:"runs"`
	// Quarantined counts trials that exhausted their attempts and were
	// excluded from the analysis, across all datasets; the per-dataset
	// Failures entries carry the details. A non-zero count marks a
	// degraded (but still valid) run: re-running with the same store
	// retries exactly the quarantined cells.
	Quarantined int `json:"quarantined,omitempty"`
	// EarlyStopped reports whether collection ended before MaxRuns (for
	// multi-dataset runs: on every dataset).
	EarlyStopped bool `json:"early_stopped"`
	// StopReason is the single-dataset stop reason ("" for multi-dataset
	// runs; see the per-dataset entries).
	StopReason StopReason `json:"stop_reason,omitempty"`
	// Elapsed is the wall-clock collection time (zero for Analyze).
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// Multi reports whether the result spans multiple datasets.
func (r *Result) Multi() bool { return len(r.Datasets) > 1 }

// MarshalJSON implements json.Marshaler, encoding non-finite float fields
// as null.
func (r Result) MarshalJSON() ([]byte, error) {
	type alias Result
	return jsonx.Marshal(alias(r))
}

// String renders the result with the default text renderer.
func (r *Result) String() string {
	var buf bytes.Buffer
	if err := (TextRenderer{}).Render(&buf, r); err != nil {
		return fmt.Sprintf("varbench: render error: %v", err)
	}
	return buf.String()
}

// Render writes the result through the given renderer (TextRenderer when
// nil).
func (r *Result) Render(w io.Writer, ren Renderer) error {
	if ren == nil {
		ren = TextRenderer{}
	}
	return ren.Render(w, r)
}

// A Renderer serializes a Result. TextRenderer, JSONRenderer and
// CSVRenderer are provided; external packages can plug their own.
type Renderer interface {
	Render(w io.Writer, r *Result) error
}

// TextRenderer writes an aligned human-readable report.
type TextRenderer struct {
	// Scores additionally lists every collected measurement.
	Scores bool
}

// Render implements Renderer.
func (t TextRenderer) Render(w io.Writer, r *Result) error {
	tb := &report.Table{
		Title:   r.Name,
		Headers: []string{"dataset", "n", "mean A", "mean B", "P(A>B)", "CI lo", "CI hi", "γ", "conclusion", "stopped"},
	}
	for _, d := range r.Datasets {
		name := d.Name
		if name == "" {
			name = "-"
		}
		stopped := string(d.StopReason)
		if stopped == "" {
			stopped = "-"
		}
		tb.AddRow(name, d.Pairs, d.Comparison.MeanA, d.Comparison.MeanB,
			d.Comparison.PAB, d.Comparison.CILo, d.Comparison.CIHi,
			d.Comparison.Gamma, string(d.Comparison.Conclusion), stopped)
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	if r.Multi() {
		if _, err := fmt.Fprintf(w, "all-datasets meaningful win (Dror-style): %v\n", r.AllMeaningful); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "Wilcoxon over per-dataset means (Demšar): p=%.4f\n", r.WilcoxonP); err != nil {
			return err
		}
	} else if len(r.Datasets) == 1 {
		c := r.Datasets[0].Comparison
		if _, err := fmt.Fprintf(w, "%s\n", c); err != nil {
			return err
		}
	}
	if r.Runs > 0 {
		if _, err := fmt.Fprintf(w, "runs: %d (%d pairs), early-stopped: %v\n", r.Runs, r.Pairs, r.EarlyStopped); err != nil {
			return err
		}
	}
	if err := renderFailuresText(w, r.Quarantined, func(yield func(TrialFailure) error) error {
		for _, d := range r.Datasets {
			for _, f := range d.Failures {
				if err := yield(f); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if t.Scores {
		for _, d := range r.Datasets {
			label := d.Name
			if label != "" {
				label += " "
			}
			for i := range d.ScoresA {
				if _, err := fmt.Fprintf(w, "%sscore %d: A=%s B=%s\n", label, i,
					report.FormatFloat(d.ScoresA[i]), report.FormatFloat(d.ScoresB[i])); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// JSONRenderer writes the result as a single JSON document.
type JSONRenderer struct {
	// Indent pretty-prints with two-space indentation.
	Indent bool
}

// Render implements Renderer.
func (j JSONRenderer) Render(w io.Writer, r *Result) error {
	enc := json.NewEncoder(w)
	if j.Indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(r)
}

// CSVRenderer writes one CSV row per dataset, suited to downstream
// pipelines aggregating many experiments.
type CSVRenderer struct{}

// Render implements Renderer.
func (CSVRenderer) Render(w io.Writer, r *Result) error {
	// Full-precision floats: this is machine-readable output, so it must
	// not go through the display-oriented report.FormatFloat rounding.
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	tb := &report.Table{
		Headers: []string{"experiment", "dataset", "pairs", "mean_a", "mean_b",
			"pab", "ci_lo", "ci_hi", "gamma", "recommended_n", "conclusion",
			"early_stopped", "stop_reason", "quarantined"},
	}
	for _, d := range r.Datasets {
		tb.Rows = append(tb.Rows, []string{
			r.Name, d.Name, strconv.Itoa(d.Pairs),
			g(d.Comparison.MeanA), g(d.Comparison.MeanB),
			g(d.Comparison.PAB), g(d.Comparison.CILo), g(d.Comparison.CIHi),
			g(d.Comparison.Gamma), strconv.Itoa(d.Comparison.RecommendedN),
			string(d.Comparison.Conclusion),
			strconv.FormatBool(d.EarlyStopped), string(d.StopReason),
			strconv.Itoa(len(d.Failures)),
		})
	}
	return tb.WriteCSV(w)
}

// combineEvidence aggregates per-dataset outcomes per Section 6: the Dror
// et al. all-datasets conjunction and Demšar's one-sided Wilcoxon over
// per-dataset mean scores (p=1 below 3 datasets, where the test is
// meaningless). Both Experiment.Run and AnalyzeDatasets conclude through
// this one implementation.
func combineEvidence(datasets []DatasetResult) (allMeaningful bool, wilcoxonP float64) {
	allMeaningful = true
	meansA := make([]float64, 0, len(datasets))
	meansB := make([]float64, 0, len(datasets))
	for _, d := range datasets {
		if d.Comparison.Conclusion != SignificantAndMeaningful {
			allMeaningful = false
		}
		meansA = append(meansA, d.Comparison.MeanA)
		meansB = append(meansB, d.Comparison.MeanB)
	}
	wilcoxonP = 1
	if len(datasets) >= 3 {
		wilcoxonP = stats.WilcoxonSignedRank(meansA, meansB, stats.GreaterTailed).PValue
	}
	return allMeaningful, wilcoxonP
}

// protocol carries the statistical knobs of one evaluation of the
// recommended test on pre-collected scores; Analyze and AnalyzeDatasets
// evaluate through it. A paired evaluation counts the pairs A wins, ties
// and loses and reads the bootstrap's exact interval off those counts, so
// it uses neither the resample count nor the seed. Those drive the
// unpaired bootstrap alone, sharded across `workers` goroutines with
// (seed, bootstrap)-deterministic shard streams, so its evaluations are
// bit-identical at any worker count.
type protocol struct {
	gamma     float64
	level     float64
	bootstrap int
	seed      uint64
	workers   int
}

func conclusionOf(d compare.Decision) Conclusion {
	switch d {
	case compare.SignificantAndMeaningful:
		return SignificantAndMeaningful
	case compare.SignificantNotMeaningful:
		return SignificantNotMeaningful
	default:
		return NotSignificant
	}
}

// newComparison shapes one outcome of the recommended test, judged at
// res.Gamma, as the public Comparison.
func newComparison(res compare.Result, meanA, meanB float64, n int) Comparison {
	return Comparison{
		MeanA:        meanA,
		MeanB:        meanB,
		PAB:          res.PAB,
		CILo:         res.CI.Lo,
		CIHi:         res.CI.Hi,
		Gamma:        res.Gamma,
		Conclusion:   conclusionOf(res.Decision),
		RecommendedN: stats.NoetherSampleSize(res.Gamma, 0.05, 0.05),
		N:            n,
	}
}

// paired runs the complete Appendix C protocol on paired scores.
func (p protocol) paired(scoresA, scoresB []float64) (Comparison, error) {
	if len(scoresA) != len(scoresB) {
		return Comparison{}, fmt.Errorf("compare: unpaired lengths %d vs %d", len(scoresA), len(scoresB))
	}
	ana, err := compare.PAB{Gamma: p.gamma, Level: p.level, Bootstrap: p.bootstrap}.NewAnalysis()
	if err != nil {
		return Comparison{}, err
	}
	for i := range scoresA {
		ana.Add(scoresA[i], scoresB[i])
	}
	return comparisonOf(ana)
}

// comparisonOf evaluates the recommended test on a paired analysis state
// and shapes it as the public Comparison. Its means match stats.Mean bit
// for bit.
func comparisonOf(ana *compare.AnalysisState) (Comparison, error) {
	res, err := ana.Evaluate()
	if err != nil {
		return Comparison{}, err
	}
	meanA, meanB := ana.Means()
	return newComparison(res, meanA, meanB, ana.N()), nil
}

// unpaired runs the Mann-Whitney variant for scores without shared seeds.
func (p protocol) unpaired(scoresA, scoresB []float64) (Comparison, error) {
	crit := compare.PAB{Gamma: p.gamma, Level: p.level, Bootstrap: p.bootstrap}
	res, err := crit.EvaluateUnpairedSharded(scoresA, scoresB, p.seed, p.workers)
	if err != nil {
		return Comparison{}, err
	}
	return newComparison(res, stats.Mean(scoresA), stats.Mean(scoresB), min(len(scoresA), len(scoresB))), nil
}

func (e *Experiment) protocol() protocol {
	return protocol{gamma: e.Gamma, level: e.Confidence, bootstrap: e.Bootstrap,
		seed: e.Seed, workers: runtime.GOMAXPROCS(0)}
}

// pairedOnly rejects WithUnpaired at a paired-only entry point rather than
// silently running the paired test on scores the caller marked unpaired.
func (e *Experiment) pairedOnly(entry string) error {
	if e.unpaired {
		return fmt.Errorf("varbench: %s takes paired scores only; use Analyze for an unpaired comparison", entry)
	}
	return nil
}

// validScores uniformly rejects samples the recommended test cannot judge
// at the public API boundary: the bootstrap needs at least 2 scores per
// algorithm, and reaching the resampler with an empty sample would panic
// deep inside internal/stats instead of returning a useful error. Scores
// must also be finite (see finiteScores).
func validScores(scoresA, scoresB []float64, dataset string) error {
	where := ""
	if dataset != "" {
		where = "dataset " + dataset + ": "
	}
	if len(scoresA) < 2 || len(scoresB) < 2 {
		return fmt.Errorf("varbench: %sneed at least 2 scores per algorithm, got %d and %d",
			where, len(scoresA), len(scoresB))
	}
	return finiteScores(scoresA, scoresB, where, 0)
}

// finiteScores rejects the first NaN or ±Inf score, naming its side and its
// position counted from first; where prefixes the message. The test would
// otherwise count a pair with a NaN as a loss for A and bias P(A>B).
func finiteScores(scoresA, scoresB []float64, where string, first int) error {
	for side, scores := range [2][]float64{scoresA, scoresB} {
		for i, v := range scores {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("varbench: %snon-finite score %c[%d] = %v", where, 'A'+side, first+i, v)
			}
		}
	}
	return nil
}

// Analyze applies the recommended test to pre-collected scores and wraps
// the conclusion in a renderable Result. Scores are treated as paired on
// shared seeds unless WithUnpaired is given. This is the score-level entry
// point the varbench compare subcommand is built on; prefer Experiment.Run
// when you control the pipelines.
func Analyze(scoresA, scoresB []float64, opts ...Option) (*Result, error) {
	e, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if !e.unpaired && len(scoresA) != len(scoresB) {
		return nil, fmt.Errorf("varbench: unpaired lengths %d vs %d", len(scoresA), len(scoresB))
	}
	if err := validScores(scoresA, scoresB, ""); err != nil {
		return nil, err
	}
	var c Comparison
	if e.unpaired {
		c, err = e.protocol().unpaired(scoresA, scoresB)
	} else {
		c, err = e.protocol().paired(scoresA, scoresB)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Name:       e.Name,
		Gamma:      e.Gamma,
		Seed:       e.Seed,
		Comparison: c,
		Datasets: []DatasetResult{{
			Comparison: c,
			ScoresA:    scoresA,
			ScoresB:    scoresB,
			Pairs:      c.N,
		}},
		WilcoxonP: 1,
		Pairs:     c.N,
	}, nil
}

// DatasetScores carries the paired scores of one dataset for a
// multi-dataset analysis.
type DatasetScores struct {
	Name             string
	ScoresA, ScoresB []float64
}

// AnalyzeDatasets applies the recommended test per dataset with a
// Bonferroni-adjusted meaningfulness threshold and combines the evidence
// across datasets (Section 6), wrapping everything in a renderable Result.
// Each dataset's outcome depends on its own scores alone, so reordering
// the datasets changes no dataset's outcome. Scores are paired:
// WithUnpaired is an error.
func AnalyzeDatasets(datasets []DatasetScores, opts ...Option) (*Result, error) {
	e, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := e.pairedOnly("AnalyzeDatasets"); err != nil {
		return nil, err
	}
	if len(datasets) == 0 {
		return nil, fmt.Errorf("varbench: no datasets")
	}
	p := e.protocol()
	p.gamma = stats.GammaBonferroni(e.Gamma, 0.05, len(datasets))
	out := &Result{
		Name:  e.Name,
		Gamma: e.Gamma,
		Seed:  e.Seed,
	}
	seen := make(map[string]bool, len(datasets))
	for i, ds := range datasets {
		// Names key the report, so they must be present and unique — the
		// same rule Experiment.Run enforces. A lone unnamed dataset stays
		// legal for parity with single-dataset Analyze.
		if ds.Name == "" && len(datasets) > 1 {
			return nil, fmt.Errorf("varbench: dataset %d needs a name", i)
		}
		if seen[ds.Name] {
			return nil, fmt.Errorf("varbench: duplicate dataset name %q", ds.Name)
		}
		seen[ds.Name] = true
		if err := validScores(ds.ScoresA, ds.ScoresB, ds.Name); err != nil {
			return nil, err
		}
		c, err := p.paired(ds.ScoresA, ds.ScoresB)
		if err != nil {
			return nil, fmt.Errorf("varbench: dataset %s: %w", ds.Name, err)
		}
		out.Datasets = append(out.Datasets, DatasetResult{
			Name:       ds.Name,
			Comparison: c,
			ScoresA:    ds.ScoresA,
			ScoresB:    ds.ScoresB,
			Pairs:      c.N,
		})
		out.Pairs += c.N
	}
	if len(out.Datasets) == 1 {
		// Match Experiment.Run: a single dataset reports through Comparison
		// and leaves the multi-dataset aggregates unset.
		out.Comparison = out.Datasets[0].Comparison
		out.WilcoxonP = 1
	} else {
		out.AllMeaningful, out.WilcoxonP = combineEvidence(out.Datasets)
	}
	return out, nil
}

// SampleSize returns the minimal number of paired measurements for the
// recommended test to detect P(A>B) ≥ gamma with 5% false positives and 5%
// false negatives (Noether 1987; Figure C.1). SampleSize(0.75) = 29.
func SampleSize(gamma float64) int {
	return stats.NoetherSampleSize(gamma, 0.05, 0.05)
}

// VarianceSummary describes the spread of repeated benchmark measurements.
type VarianceSummary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	StdErr float64 `json:"std_err"`
	// NormalP is the Shapiro-Wilk p-value (NaN when n outside [3,5000]):
	// small values warn that normal-theory intervals are unreliable. It
	// marshals as null when NaN.
	NormalP float64 `json:"normal_p"`
}

// MarshalJSON implements json.Marshaler, encoding the NaN NormalP sentinel
// as null — encoding/json would otherwise fail the whole document.
func (s VarianceSummary) MarshalJSON() ([]byte, error) {
	type alias VarianceSummary
	return jsonx.Marshal(alias(s))
}

// Summarize computes the variance summary of repeated measurements, e.g. of
// the scores returned by Experiment.Collect in a per-source variance study.
func Summarize(scores []float64) VarianceSummary {
	s := VarianceSummary{
		N:      len(scores),
		Mean:   stats.Mean(scores),
		Std:    stats.Std(scores),
		StdErr: stats.StdErr(scores),
	}
	if _, p, err := stats.ShapiroWilk(scores); err == nil {
		s.NormalP = p
	} else {
		s.NormalP = math.NaN()
	}
	return s
}
