// Package varbench is a toolkit for variance-aware machine-learning
// benchmarks, implementing the recommendations of Bouthillier et al.,
// "Accounting for Variance in Machine Learning Benchmarks" (MLSys 2021).
//
// The public surface is the Experiment type: a declarative spec of a
// benchmark comparison that owns collection, statistics and reporting end
// to end.
//
//	exp := varbench.Experiment{
//		A: runCandidate,   // func(seed uint64) (float64, error)
//		B: runBaseline,
//		Parallelism: 8,    // collection fans out across a worker pool
//	}
//	res, err := exp.Run(ctx)
//	...
//	res.Render(os.Stdout, varbench.TextRenderer{})
//
// Run executes the paper's protocol:
//
//  1. It randomizes every source of variation (data split, initialization,
//     data order, dropout, augmentation, HPO — see Source) on every run,
//     pairing the two algorithms on shared trials so that shared noise
//     cancels (Appendix C.2). Restrict Sources to probe individual
//     variances, or use Experiment.Collect for single-pipeline studies.
//  2. It collects exactly N pairs, N fixed before the first trial:
//     Noether's recommended sample size for γ, capped by MaxRuns
//     (Appendix C). Workers claim trials one at a time from a single
//     schedule, and every trial's seeds derive from its index alone, so the
//     result is bit-identical at any Parallelism.
//  3. It concludes with the probability of outperforming P(A>B) against
//     the meaningfulness threshold γ — the three-zone decision of
//     Appendix C.6 — and renders as text, JSON or CSV (Renderer).
//
// Multi-dataset comparisons (Section 6) use the Datasets field; pre-collected
// scores go through Analyze / AnalyzeDatasets, which the `varbench compare`
// subcommand exposes on the command line.
//
// The internal packages contain the complete reproduction of the paper's
// experiments: five synthetic case studies, the ideal and biased estimators,
// the simulation study of decision criteria, and one driver per figure and
// table (run `go run ./cmd/varbench all -quick`).
package varbench

// DefaultGamma is the recommended meaningfulness threshold for P(A>B).
const DefaultGamma = 0.75
