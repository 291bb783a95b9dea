package tensor

// Reducer selects how the data-parallel trainer (nn.TrainConfig.Reducer)
// accumulates its shards' gradients and losses.
//
// The paper could not fully seed one of its pipelines and therefore measured
// a residual "numerical noise" caused by non-deterministic accumulation order
// on the GPU (Figure 1, Appendix A). ReduceNondeterministic reproduces that
// mechanism faithfully in software: partial sums are folded in goroutine
// *completion* order, so the floating-point rounding of the total varies from
// run to run even with all seeds fixed.
type Reducer int

const (
	// ReduceSequential accumulates left to right; bit-deterministic.
	ReduceSequential Reducer = iota
	// ReduceParallelDeterministic accumulates shards in parallel but folds
	// the partial sums in shard order; bit-deterministic.
	ReduceParallelDeterministic
	// ReduceNondeterministic folds partial sums in completion order;
	// simulates GPU atomics / cudnn non-determinism.
	ReduceNondeterministic
)
