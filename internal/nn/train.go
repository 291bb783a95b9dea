package nn

import (
	"fmt"
	"runtime"
	"sync"

	"varbench/internal/augment"
	"varbench/internal/data"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// TrainConfig specifies one training run of an MLP. The stochastic elements
// — weight init, data order, dropout masks, augmentation — each consume a
// dedicated stream from the xrand.Streams passed to Train, so the benchmark
// can vary any single source of variation in isolation (Figure 1).
type TrainConfig struct {
	Hidden     []int       // hidden layer widths
	Activation Activation  //
	Loss       Loss        //
	OutDim     int         // output width (classes, or 1 for regression)
	Init       Initializer //
	Dropout    float64     // hidden dropout probability

	// Algo selects the update rule (SGD with momentum by default; Adam for
	// the BERT-style studies). Beta1/Beta2/AdamEps configure Adam and
	// default to 0.9 / 0.999 / 1e-8 (Table 3).
	Algo    Algo
	Beta1   float64
	Beta2   float64
	AdamEps float64

	LR          float64 // initial learning rate
	Momentum    float64 // SGD momentum coefficient
	WeightDecay float64 // L2 penalty coefficient
	LRDecay     float64 // per-epoch exponential decay γ (1 = constant)
	Epochs      int
	BatchSize   int

	Augment augment.Augmenter // nil disables augmentation

	// Reducer controls gradient accumulation across data-parallel shards.
	// ReduceNondeterministic reproduces GPU-style numerical noise; the
	// default ReduceSequential is bit-deterministic.
	Reducer tensor.Reducer
	// Shards is the number of data-parallel gradient shards per batch (only
	// meaningful for parallel reducers; 0 picks GOMAXPROCS capped at 4).
	Shards int
}

// Validate checks the configuration for obvious mistakes.
func (c *TrainConfig) Validate() error {
	if c.OutDim < 1 {
		return fmt.Errorf("nn: OutDim must be ≥ 1")
	}
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("nn: hidden widths must be ≥ 1, got %v", c.Hidden)
		}
	}
	if !(c.LR > 0) {
		return fmt.Errorf("nn: LR must be positive")
	}
	if c.Epochs < 1 || c.BatchSize < 1 {
		return fmt.Errorf("nn: Epochs and BatchSize must be ≥ 1")
	}
	if !(c.Dropout >= 0 && c.Dropout < 1) {
		return fmt.Errorf("nn: Dropout must be in [0, 1)")
	}
	if c.Init == nil {
		return fmt.Errorf("nn: Init must be set")
	}
	return nil
}

// TrainResult bundles the fitted model with its loss trajectory.
type TrainResult struct {
	Model       *MLP
	EpochLosses []float64
}

// Train fits an MLP on the training set. It is the concrete Opt(St, λ; ξO)
// of Equation 1: the hyperparameters live in cfg, the random sources ξO in
// streams. Train runs a Trainer to completion.
func Train(cfg TrainConfig, train *data.Dataset, streams *xrand.Streams) (*TrainResult, error) {
	t, err := NewTrainer(cfg, train, streams)
	if err != nil {
		return nil, err
	}
	for !t.Done() {
		if err := t.Epoch(); err != nil {
			return nil, err
		}
	}
	return t.Result(), nil
}

// batchGradient computes the batch loss and gradient, optionally sharded for
// the data-parallel reducers. With ReduceNondeterministic the shard
// gradients are folded in completion order, producing realistic run-to-run
// floating-point noise even under fixed seeds. The sequential pass runs in
// the Trainer's workspace and each shard in one of its own, so the returned
// gradients live in a workspace until the next batch.
func (t *Trainer) batchGradient(xb *tensor.Matrix, yb []float64,
	dropoutRng *xrand.Source) (float64, *gradients) {
	model := t.model
	if t.cfg.Reducer == tensor.ReduceSequential || xb.Rows < 8 {
		return model.lossAndGrad(&t.ws, xb, yb, dropoutStream(model, dropoutRng))
	}
	shards := t.cfg.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
		if shards > 4 {
			shards = 4
		}
	}
	if shards > xb.Rows {
		shards = xb.Rows
	}
	for len(t.shardWS) < shards {
		t.shardWS = append(t.shardWS, new(workspace))
	}
	// Pre-draw independent dropout seeds per shard so the sharded run is
	// seed-reproducible regardless of scheduling.
	type shardOut struct {
		id     int
		loss   float64
		grad   *gradients
		weight float64
	}
	chunk := (xb.Rows + shards - 1) / shards
	outs := make(chan shardOut, shards)
	var wg sync.WaitGroup
	launched := 0
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > xb.Rows {
			hi = xb.Rows
		}
		if lo >= hi {
			continue
		}
		var shardDrop *xrand.Source
		if model.Dropout > 0 && dropoutRng != nil {
			shardDrop = xrand.New(dropoutRng.Uint64())
		}
		id := launched
		launched++
		wg.Add(1)
		go func(id, lo, hi int, drop *xrand.Source, ws *workspace) {
			defer wg.Done()
			sub := ws.batch.Resize(hi-lo, xb.Cols)
			copy(sub.Data, xb.Data[lo*xb.Cols:hi*xb.Cols])
			loss, grad := model.lossAndGrad(ws, sub, yb[lo:hi], drop)
			outs <- shardOut{id: id, loss: loss, grad: grad, weight: float64(hi - lo)}
		}(id, lo, hi, shardDrop, t.shardWS[id])
	}
	wg.Wait()
	close(outs)

	var total *gradients
	loss, weight := 0.0, 0.0
	if t.cfg.Reducer == tensor.ReduceNondeterministic {
		// Fold in completion order (channel order): the FP rounding of the
		// fold depends on goroutine scheduling, like GPU atomics.
		for o := range outs {
			foldShard(&total, &loss, &weight, o.loss, o.grad, o.weight)
		}
	} else {
		// Deterministic parallel: fold in shard-id order.
		collected := make([]shardOut, launched)
		for o := range outs {
			collected[o.id] = o
		}
		for _, o := range collected {
			foldShard(&total, &loss, &weight, o.loss, o.grad, o.weight)
		}
	}
	loss /= weight
	scale := 1 / weight
	for l := range total.w {
		total.w[l].Scale(scale)
		tensor.Scale(scale, total.b[l])
	}
	return loss, total
}

func foldShard(total **gradients, loss, weight *float64, shardLoss float64,
	grad *gradients, shardWeight float64) {
	// Convert mean-gradients back to sum-gradients via the shard weight so
	// shards of unequal size combine correctly.
	for l := range grad.w {
		grad.w[l].Scale(shardWeight)
		tensor.Scale(shardWeight, grad.b[l])
	}
	*loss += shardLoss * shardWeight
	*weight += shardWeight
	if *total == nil {
		*total = grad
		return
	}
	(*total).add(grad)
}

func dropoutStream(model *MLP, rng *xrand.Source) *xrand.Source {
	if model.Dropout <= 0 {
		return nil
	}
	return rng
}

// applySGD performs one SGD-with-momentum update:
// v ← μ·v − lr·(g + wd·θ); θ ← θ + v.
func applySGD(model *MLP, velocity, grad *gradients, lr, momentum, weightDecay float64) {
	for l := range model.Weights {
		w := model.Weights[l]
		v := velocity.w[l]
		g := grad.w[l]
		for i := range w.Data {
			v.Data[i] = momentum*v.Data[i] - lr*(g.Data[i]+weightDecay*w.Data[i])
			w.Data[i] += v.Data[i]
		}
		bv := velocity.b[l]
		bg := grad.b[l]
		b := model.Biases[l]
		for i := range b {
			bv[i] = momentum*bv[i] - lr*bg[i]
			b[i] += bv[i]
		}
	}
}
