package varbench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"varbench/internal/estimator"
	"varbench/internal/stats"
	"varbench/internal/xrand"
	"varbench/store"
)

// Default knobs of a VarianceStudy.
const (
	// DefaultVarianceK is the number of measures collected per source and
	// realization (the paper probes each source with 200 seeds; the default
	// favors exploratory budgets).
	DefaultVarianceK = 10
	// DefaultVarianceRealizations is the number of independent realizations
	// of the whole study (the paper repeats each estimator 20 times to
	// measure the variance of its mean).
	DefaultVarianceRealizations = 5
)

// A VarianceStudy is a declarative variance decomposition of one benchmark
// pipeline, mirroring Experiment: it measures how much each source of
// variation contributes to the spread of the pipeline's results — the
// protocol behind Figure 1 — and how fast averaging k measures shrinks the
// standard error — the SE-vs-k curves of Figure 5 and the bias/Var/ρ/MSE
// decomposition of Figure H.5 — served through the public API instead of the
// internal figure drivers.
//
//	study := varbench.VarianceStudy{Pipeline: runTrial, K: 10, Realizations: 5}
//	rep, err := study.Run(ctx)
//	...
//	rep.Render(os.Stdout, varbench.VarianceTextRenderer{})
//
// For every probed source the study collects Realizations independent sets
// of K measures in which only that source receives a fresh seed per measure
// (all other sources stay fixed within the realization), plus one
// joint-randomization row in which every probed source varies at once. The
// (source × realization) cells fan out across a worker pool; every cell's
// seeds derive from (Seed, realization, source) alone, so the report is
// bit-identical at any Parallelism.
type VarianceStudy struct {
	// Name labels the study in reports. Optional.
	Name string

	// Pipeline runs one benchmark measurement under a trial's per-source
	// seed assignment. It must be a seed-aware TrialFunc — a plain RunFunc
	// cannot hold sources fixed, which is the whole point of the study —
	// and, like Experiment pipelines, a pure function of its Trial.
	Pipeline TrialFunc

	// Sources lists the sources of variation probed one at a time (default:
	// LearningSources, the ξO set). Use a SourceSet — e.g. SetLearning or
	// SetAll — or ParseSources to name the estimator's canonical subsets.
	// Custom labels are honored like Experiment.Sources (the Pipeline reads
	// them through Trial.SourceSeed) — which also means a source the
	// Pipeline never consumes (a typo, or ξH under a fixed-hyperparameter
	// pipeline) reports zero variance rather than an error; ParseSources
	// catches misspelled canonical labels.
	Sources []Source

	// K is the number of measures per source per realization (default 10).
	// The SE-vs-k curves span k = 1..K.
	K int
	// Realizations is the number of independent repetitions of the whole
	// study (default 5, minimum 2): the spread across realizations of the
	// k-measure mean is what the curves and the decomposition estimate.
	Realizations int

	// Seed is the root of all randomness. The zero value means "use the
	// default" (1), matching Experiment.
	Seed uint64

	// Parallelism is the worker-pool size the (source × realization) cells
	// fan out across (default GOMAXPROCS). Results are identical at any
	// setting.
	Parallelism int

	// TrialTimeout, Retry and FailFast mean what they mean on Experiment,
	// and every collection cell gets them. In quarantine mode a cell with
	// any quarantined measure drops its whole realization — a partial
	// realization would bias the SE-vs-k curves — and the study degrades
	// to the surviving realizations per row, erroring only when fewer than
	// 2 survive. Dropped measures are listed in VarianceReport.Failures and
	// recorded under store failure/... keys; re-running with the same store
	// retries exactly the failed cells.
	TrialTimeout time.Duration
	Retry        RetryPolicy
	FailFast     bool

	// Store, when set, makes the study durable and resumable: every
	// completed measure is appended immediately, and cells already recorded
	// are served from the store, so an interrupted Run resumes exactly
	// where it stopped and studies sharing (Seed, source subsets) reuse
	// each other's cells. Cell keys derive from the per-realization seed
	// root and the varied-source fingerprint, so a study probing a subset
	// of another's Sources — at the same Seed — reuses every per-source
	// row. Its joint row is shared only when the varied set matches a
	// recorded one: for a single-source study the joint row coincides with
	// the source's own row (fully cached), while a multi-source subset's
	// joint row is a new combination and is collected fresh. Any
	// store.Backend implementation works; see Experiment.Store.
	Store store.Backend
	// PipelineID names the Pipeline implementation inside the store's spec
	// fingerprint; see Experiment.PipelineID.
	PipelineID string
}

// withDefaults returns a copy of s with zero-valued knobs replaced by their
// defaults, and rejects invalid settings.
func (s VarianceStudy) withDefaults() (VarianceStudy, error) {
	c := s
	if c.Pipeline == nil {
		return c, fmt.Errorf("varbench: variance study needs a Pipeline (TrialFunc)")
	}
	if len(c.Sources) == 0 {
		c.Sources = LearningSources()
	}
	seen := make(map[Source]bool, len(c.Sources))
	for _, src := range c.Sources {
		if src == VarNumericalNoise {
			return c, fmt.Errorf("varbench: %s is a pseudo-source with no seed stream; it cannot be probed by a VarianceStudy", VarNumericalNoise)
		}
		if seen[src] {
			return c, fmt.Errorf("varbench: duplicate source %q", src)
		}
		seen[src] = true
	}
	if c.K < 0 {
		return c, fmt.Errorf("varbench: K must not be negative, got %d (0 means default)", c.K)
	}
	if c.K == 0 {
		c.K = DefaultVarianceK
	}
	if c.K < 2 {
		return c, fmt.Errorf("varbench: K must be ≥ 2, got %d", c.K)
	}
	if c.Realizations < 0 {
		return c, fmt.Errorf("varbench: Realizations must not be negative, got %d (0 means default)", c.Realizations)
	}
	if c.Realizations == 0 {
		c.Realizations = DefaultVarianceRealizations
	}
	if c.Realizations < 2 {
		return c, fmt.Errorf("varbench: Realizations must be ≥ 2, got %d", c.Realizations)
	}
	if c.Parallelism < 0 {
		return c, fmt.Errorf("varbench: Parallelism must not be negative, got %d (0 means default)", c.Parallelism)
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TrialTimeout < 0 {
		return c, fmt.Errorf("varbench: TrialTimeout must not be negative, got %v (0 means no deadline)", c.TrialTimeout)
	}
	if err := c.Retry.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Run executes the study: Realizations × (len(Sources)+1) collection cells —
// one per probed source plus the joint-randomization row — fan out across
// the worker pool, and the measures are summarized into a VarianceReport.
// The report is deterministic given the spec, identical at any Parallelism.
func (s VarianceStudy) Run(ctx context.Context) (*VarianceReport, error) {
	cfg, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow nondeterm(Elapsed is wall-clock metadata, not part of the deterministic result)

	// One cell = one realization of one row (a single source, or the joint
	// row varying every probed source at once). Each cell is an independent
	// Experiment.Collect whose seeds derive from (Seed, realization) and the
	// varied-source labels alone; cells write to disjoint slots, so the
	// worker pool cannot perturb the result.
	type cell struct {
		row         int // index into rows: probed sources, then the joint row
		realization int
	}
	nRows := len(cfg.Sources) + 1
	jointRow := nRows - 1
	rowSources := make([][]Source, nRows)
	for i, src := range cfg.Sources {
		rowSources[i] = []Source{src}
	}
	rowSources[jointRow] = cfg.Sources

	cells := make([]cell, 0, nRows*cfg.Realizations)
	for r := 0; r < cfg.Realizations; r++ {
		for row := 0; row < nRows; row++ {
			cells = append(cells, cell{row: row, realization: r})
		}
	}
	// Every row of one realization shares the same realization root, so the
	// held-fixed sources keep identical seeds across rows — the paper's
	// "all other sources fixed to initial values" protocol — while
	// realizations are independent of each other.
	roots := make([]uint64, cfg.Realizations)
	for r := range roots {
		roots[r] = xrand.New(cfg.Seed).Split(fmt.Sprintf("variance/realization/%d", r)).Uint64()
	}

	measures := make([][][]float64, nRows) // [row][realization][k]
	for row := range measures {
		measures[row] = make([][]float64, cfg.Realizations)
	}
	cellFails := make([][]TrialFailure, len(cells))
	// The cell receives collectN's pool context, not Run's: when a sibling
	// cell fails, the pool cancels and every in-flight cell stops between
	// its own measures instead of finishing all K of them.
	collect := func(cellCtx context.Context, i int) error {
		c := cells[i]
		e := Experiment{
			ATrial:       cfg.Pipeline,
			Sources:      rowSources[c.row],
			MaxRuns:      cfg.K,
			Parallelism:  1, // the pool parallelizes across cells, not within
			Store:        cfg.Store,
			PipelineID:   cfg.PipelineID,
			TrialTimeout: cfg.TrialTimeout,
			Retry:        cfg.Retry,
			FailFast:     cfg.FailFast,
		}
		WithSeed(roots[c.realization])(&e)
		label := rowLabel(rowSources[c.row], c.row == jointRow)
		out, fails, err := e.collectAll(cellCtx)
		if err != nil {
			return fmt.Errorf("variance source %q realization %d: %w",
				label, c.realization, err)
		}
		if len(fails) > 0 {
			// Any quarantined measure drops the whole realization for this
			// row: a partial cell would bias the SE-vs-k curve, and the
			// dropped cell's store records make the resume retry exactly it.
			for j := range fails {
				fails[j].Dataset = label
				fails[j].Realization = c.realization + 1
			}
			cellFails[i] = fails
			return nil
		}
		measures[c.row][c.realization] = out
		return nil
	}
	if err := collectN(ctx, len(cells), cfg.Parallelism, collect); err != nil {
		return nil, err
	}
	var failures []TrialFailure
	for _, fs := range cellFails {
		failures = append(failures, fs...)
	}

	rep := &VarianceReport{
		Name:         cfg.Name,
		Seed:         cfg.Seed,
		K:            cfg.K,
		Realizations: cfg.Realizations,
	}
	// μ̂: the grand mean of the joint-randomization measures, the study's
	// best estimate of the expected performance — the reference the
	// decomposition's bias is measured against.
	rep.Mu = stats.Mean(flatten(measures[jointRow]))

	ks := estimator.Ks(cfg.K, 12)
	var totalVar float64
	rows := make([]SourceVariance, nRows)
	for row := range rows {
		label := rowLabel(rowSources[row], row == jointRow)
		kept := surviving(measures[row])
		if len(kept) < len(measures[row]) && len(kept) < 2 {
			return nil, fmt.Errorf("varbench: source %q: only %d of %d realizations survived quarantine (%d measure(s) failed): %w",
				label, len(kept), cfg.Realizations, len(failures), ErrTrialFailed)
		}
		sv, err := summarizeRow(label, kept, rep.Mu, ks)
		if err != nil {
			return nil, err
		}
		rows[row] = sv
		if row != jointRow {
			totalVar += sv.Std * sv.Std
		}
	}
	// Shares normalize each probed source's variance by the sum over probed
	// sources; the joint row's share compares joint randomization to that
	// sum (≈1 when sources contribute independently).
	for row := range rows {
		if totalVar > 0 {
			rows[row].Share = rows[row].Std * rows[row].Std / totalVar
		}
	}
	rep.Sources = rows[:jointRow]
	rep.Joint = rows[jointRow]
	rep.Failures = failures
	rep.Elapsed = time.Since(start) //lint:allow nondeterm(Elapsed is wall-clock metadata, not part of the deterministic result)
	return rep, nil
}

// rowLabel names a report row: the source's own label, or "joint" for the
// all-probed-sources row.
func rowLabel(sources []Source, joint bool) string {
	if joint {
		return JointLabel
	}
	return string(sources[0])
}

// summarizeRow condenses one row's realization×K measure matrix into its
// report entry: pooled spread, SE-vs-k curve and mean-estimator
// decomposition.
func summarizeRow(label string, matrix [][]float64, mu float64, ks []int) (SourceVariance, error) {
	var meanSum, varSum float64
	for _, row := range matrix {
		meanSum += stats.Mean(row)
		varSum += stats.Variance(row)
	}
	n := float64(len(matrix))
	curve, err := estimator.BiasedCurve(label, matrix, ks)
	if err != nil {
		return SourceVariance{}, fmt.Errorf("varbench: source %q curve: %w", label, err)
	}
	dec, err := estimator.Decompose(label, matrix, mu)
	if err != nil {
		return SourceVariance{}, fmt.Errorf("varbench: source %q decomposition: %w", label, err)
	}
	return SourceVariance{
		Source: label,
		Mean:   meanSum / n,
		// Pooled within-realization std: the per-source spread of single
		// measures, the quantity Figure 1 reports.
		Std: math.Sqrt(varSum / n),
		Curve: SECurve{
			K:    append([]int(nil), curve.K...),
			SE:   append([]float64(nil), curve.Std...),
			Band: append([]float64(nil), curve.Band...),
		},
		Decomposition: Decomposition{
			Bias: dec.Bias,
			Var:  dec.Var,
			Rho:  dec.Rho,
			MSE:  dec.MSE,
		},
		Measures: matrix,
	}, nil
}

// surviving drops the nil (quarantined) realizations of one row's measure
// matrix, preserving realization order.
func surviving(matrix [][]float64) [][]float64 {
	out := make([][]float64, 0, len(matrix))
	for _, row := range matrix {
		if row != nil {
			out = append(out, row)
		}
	}
	return out
}

func flatten(matrix [][]float64) []float64 {
	var out []float64
	for _, row := range matrix {
		out = append(out, row...)
	}
	return out
}
