package xrand

// A Var names one source of variation in a learning pipeline, following the
// paper's decomposition ξ = ξO ∪ ξH (Section 2.1): the learning-procedure
// sources ξO (data split, weight initialization, data visit order, dropout
// masks, stochastic data augmentation) and the hyperparameter-optimization
// sources ξH (search randomness and its internal data splitting).
type Var string

// The canonical sources of variation studied in the paper (Figure 1).
const (
	// VarDataSplit seeds the bootstrap / out-of-bootstrap resampling of the
	// finite dataset into train+valid and test sets.
	VarDataSplit Var = "data-split"
	// VarInit seeds model parameter initialization.
	VarInit Var = "weights-init"
	// VarOrder seeds the visit order of examples in SGD.
	VarOrder Var = "data-order"
	// VarDropout seeds dropout masks.
	VarDropout Var = "dropout"
	// VarAugment seeds stochastic data augmentation.
	VarAugment Var = "data-augment"
	// VarHOpt seeds the hyperparameter-optimization search (ξH): random
	// search draws, noisy-grid perturbation, BayesOpt candidate sampling.
	VarHOpt Var = "hopt"
	// VarHOptSplit seeds the train/validation splitting internal to HOpt.
	VarHOptSplit Var = "hopt-split"
	// VarNumericalNoise is a pseudo-source: it names runs in which every
	// seed is held fixed and only nondeterministic floating-point
	// accumulation varies (Figure 1's "Numerical noise", Appendix A). It has
	// no stream of its own.
	VarNumericalNoise Var = "numerical-noise"
)

// LearningVars lists the ξO sources in the order used by Figure 1.
func LearningVars() []Var {
	return []Var{VarDataSplit, VarAugment, VarOrder, VarInit, VarDropout}
}

// AllVars lists every source, ξO then ξH.
func AllVars() []Var {
	return append(LearningVars(), VarHOpt, VarHOptSplit)
}

// Streams hands out one independent Source per source of variation, all
// derived from per-source seeds. It implements the paper's seeding protocol:
// an experiment that probes one source assigns it a fresh seed while keeping
// all other sources' seeds fixed.
type Streams struct {
	seeds   map[Var]uint64
	sources map[Var]*Source
}

// NewStreams builds a stream set in which every known source is seeded
// deterministically from root. Individual sources can then be re-seeded with
// Reseed to vary exactly one ξ component.
func NewStreams(root uint64) *Streams {
	s := &Streams{
		seeds:   make(map[Var]uint64),
		sources: make(map[Var]*Source),
	}
	base := New(root)
	for _, v := range AllVars() {
		s.seeds[v] = base.Split(string(v)).Uint64()
	}
	return s
}

// Clone returns a deep copy with identical seeds but fresh, unconsumed
// sources. Used to rerun a pipeline under the exact same ξ.
func (s *Streams) Clone() *Streams {
	c := &Streams{
		seeds:   make(map[Var]uint64, len(s.seeds)),
		sources: make(map[Var]*Source),
	}
	for v, seed := range s.seeds { //lint:allow nondeterm(map-to-map copy; no order-dependent state escapes)
		c.seeds[v] = seed
	}
	return c
}

// Reseed assigns a new seed to one source of variation, resetting its stream.
func (s *Streams) Reseed(v Var, seed uint64) {
	s.seeds[v] = seed
	delete(s.sources, v)
}

// Get returns the stream for source v, creating it lazily from its seed.
// Repeated calls return the same stream instance (it keeps its position).
func (s *Streams) Get(v Var) *Source {
	if src, ok := s.sources[v]; ok {
		return src
	}
	seed, ok := s.seeds[v]
	if !ok {
		// Unknown custom label: derive deterministically so user-defined
		// sources are still reproducible.
		seed = uint64(HashLabel(string(v)))
		s.seeds[v] = seed
	}
	src := New(seed)
	s.sources[v] = src
	return src
}
