package varbench

import (
	"fmt"
	"sort"
	"strings"

	"varbench/internal/estimator"
	"varbench/internal/xrand"
)

// A Source names one source of variation in a learning pipeline, following
// the paper's decomposition ξ = ξO ∪ ξH (Section 2.1). An Experiment draws a
// fresh seed for every varied source on every run and holds the remaining
// sources fixed, which is the paper's protocol for both full randomization
// (vary everything — the default) and per-source variance studies (vary
// exactly one).
type Source string

// The canonical sources of variation studied in the paper (Figure 1).
const (
	// VarDataSplit seeds the bootstrap / out-of-bootstrap resampling of the
	// finite dataset into train+valid and test sets.
	VarDataSplit Source = Source(xrand.VarDataSplit)
	// VarInit seeds model parameter initialization.
	VarInit Source = Source(xrand.VarInit)
	// VarOrder seeds the visit order of examples in SGD.
	VarOrder Source = Source(xrand.VarOrder)
	// VarDropout seeds dropout masks.
	VarDropout Source = Source(xrand.VarDropout)
	// VarAugment seeds stochastic data augmentation.
	VarAugment Source = Source(xrand.VarAugment)
	// VarHOpt seeds the hyperparameter-optimization search (ξH).
	VarHOpt Source = Source(xrand.VarHOpt)
	// VarHOptSplit seeds the train/validation splitting internal to HOpt.
	VarHOptSplit Source = Source(xrand.VarHOptSplit)
	// VarNumericalNoise is a pseudo-source naming runs in which every seed
	// is held fixed and only nondeterministic floating-point accumulation
	// varies (Appendix A). It has no seed stream and is not part of
	// AllSources.
	VarNumericalNoise Source = Source(xrand.VarNumericalNoise)
)

// LearningSources lists the ξO sources in the order used by Figure 1.
func LearningSources() []Source {
	return sourcesOf(xrand.LearningVars())
}

// AllSources lists every seedable source, ξO then ξH. It is the default set
// an Experiment varies per run.
func AllSources() []Source {
	return sourcesOf(xrand.AllVars())
}

func sourcesOf(vars []xrand.Var) []Source {
	out := make([]Source, len(vars))
	for i, v := range vars {
		out[i] = Source(v)
	}
	return out
}

// A SourceSet names a canonical group of sources of variation, bridging the
// randomization subsets of the internal estimators (the FixHOptEst variants
// of Algorithm 2, Section 3.3) to the public Source vocabulary. Sets expand
// through ParseSources, e.g. ParseSources(string(SetLearning)), and so are
// accepted by the `varbench variance -sources` flag.
type SourceSet string

// The canonical source sets.
const (
	// SetInit is FixHOptEst(k, Init): weight initialization only — the
	// predominant (and weakest) randomization practice in the literature.
	SetInit SourceSet = "init"
	// SetData is FixHOptEst(k, Data): the dataset split only (bootstrap).
	SetData SourceSet = "data"
	// SetLearning is FixHOptEst(k, All): every ξO source — init, order,
	// dropout, augmentation and data split — everything except HOpt. The
	// paper's recommended cheap randomization.
	SetLearning SourceSet = "learning"
	// SetAll is every seedable source, ξO and ξH (LearningSources plus the
	// hyperparameter-optimization streams).
	SetAll SourceSet = "all"
)

// sourceSets maps each named set to its expansion. The first three delegate
// to the estimator's Subset registry so the public sets can never drift from
// the subsets the internal estimators actually randomize.
func sourceSets() map[SourceSet][]Source {
	return map[SourceSet][]Source{
		SetInit:     sourcesOf(estimator.SubsetInit.Vars()),
		SetData:     sourcesOf(estimator.SubsetData.Vars()),
		SetLearning: sourcesOf(estimator.SubsetAll.Vars()),
		SetAll:      AllSources(),
	}
}

// ParseSources resolves a comma-separated spec of source labels and set names
// ("weights-init", "init,data-order", "learning", "all,hopt") into a
// duplicate-free Source list, preserving first-appearance order. It is the
// registry the CLI uses to translate user specs into the estimator's
// randomization subsets.
func ParseSources(spec string) ([]Source, error) {
	var out []Source
	seen := make(map[Source]bool)
	add := func(s Source) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	known := make(map[Source]bool)
	for _, s := range AllSources() {
		known[s] = true
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if set, ok := sourceSets()[SourceSet(tok)]; ok {
			for _, s := range set {
				add(s)
			}
			continue
		}
		if known[Source(tok)] {
			add(Source(tok))
			continue
		}
		return nil, fmt.Errorf("varbench: unknown source %q (valid: %s)", tok, validSourceNames())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("varbench: empty source spec %q", spec)
	}
	return out, nil
}

// canonicalSourceLabels renders a source list as a canonical (sorted,
// deduplicated, comma-joined) string for spec fingerprinting: the trial
// store must treat {init, order} and {order, init} as the same varied set,
// because per-source seeds derive from labels, not list positions.
func canonicalSourceLabels(sources []Source) string {
	labels := make([]string, 0, len(sources))
	seen := make(map[Source]bool, len(sources))
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			labels = append(labels, string(s))
		}
	}
	sort.Strings(labels)
	return strings.Join(labels, ",")
}

// validSourceNames lists every accepted ParseSources token, sets first.
func validSourceNames() string {
	sets := make([]string, 0, len(sourceSets()))
	for s := range sourceSets() {
		sets = append(sets, string(s))
	}
	sort.Strings(sets)
	names := sets
	for _, s := range AllSources() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}

// A Trial is the complete seed assignment of one benchmark run: a root seed
// (what a plain RunFunc receives) plus one derived seed per source of
// variation. Sources listed in the experiment's Sources field receive a
// fresh seed on every trial; all other sources keep a seed fixed across the
// whole experiment, so a TrialFunc can probe exactly the chosen sources.
type Trial struct {
	// Index is the 0-based position of this trial in the experiment;
	// algorithms A and B of a pair share the same Trial.
	Index int
	// Seed is the root seed for this trial. Deriving all per-source seeds
	// from it via xrand.NewStreams(Seed) agrees with SourceSeed for every
	// varied source.
	Seed uint64

	// plan is the seed rules every trial of one stream shares; nil varies
	// every source.
	plan *seedPlan
}

// A seedPlan holds what the trials of one stream share: the varied
// sources, the seeds of the known sources held fixed, and the root of the
// fixed seeds of custom labels. A stream builds it once and never writes it
// again, so concurrent workers read it freely. Its zero value varies every
// source.
type seedPlan struct {
	varied map[Source]bool
	fixed  map[Source]uint64
	// fixedRoot derives seeds for custom labels outside a restricted
	// Sources set; 0, as in the zero plan, lets unknown labels vary per
	// trial instead.
	fixedRoot uint64
}

// SourceSeed returns the seed assigned to one source of variation for this
// trial: fresh per trial for varied sources, constant across trials for the
// rest. Custom labels follow the same contract: when the experiment
// restricts Sources, a label not in that set yields a seed that is constant
// across trials; when all sources vary (the default), it varies per trial.
// A varied source's seed is derived on each call, from Seed alone.
func (t Trial) SourceSeed(s Source) uint64 {
	if p := t.plan; p != nil && !p.varied[s] {
		if seed, ok := p.fixed[s]; ok {
			return seed
		}
		if p.fixedRoot != 0 {
			return splitSeed(p.fixedRoot, "fixed/"+string(s))
		}
	}
	return splitSeed(t.Seed, string(s))
}

// splitSeed returns xrand.New(root).Split(label).Uint64(), the first draw
// of the child stream, without allocating the child.
func splitSeed(root uint64, label string) uint64 {
	return xrand.New(xrand.New(root).SplitSeed(xrand.HashLabel(label))).Uint64()
}
