package nn

import (
	"fmt"
	"math"

	"varbench/internal/augment"
	"varbench/internal/data"
	"varbench/internal/xrand"
)

// Trainer is a training loop that runs one epoch per call. Every random
// draw comes from the streams it was built with, so two Trainers built from
// identical streams train bit-identically (the paper's Appendix A
// reproducibility protocol). Train runs a Trainer to completion.
type Trainer struct {
	cfg     TrainConfig
	model   *MLP
	optim   *optimState
	streams *xrand.Streams
	train   *data.Dataset
	order   []int
	epoch   int
	lr      float64
	decay   float64
	losses  []float64
	yBuf    []float64
	ws      workspace    // the sequential pass and the augmented batch
	shardWS []*workspace // one per data-parallel shard
}

// maxPresizedEpochs caps the loss history NewTrainer allocates up front, so
// that an epoch's append does not allocate: callers that stop training by
// their own budget set Epochs to an unreachable value (1<<30) instead.
const maxPresizedEpochs = 1024

// NewTrainer initializes a training run: the model is built and initialized
// from the weight stream immediately, so two Trainers created from identical
// streams hold identical parameters. It rejects a configuration that fails
// Validate, an empty training set, and, for CrossEntropy, any target that is
// not a class index in [0, OutDim).
func NewTrainer(cfg TrainConfig, train *data.Dataset, streams *xrand.Streams) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.N() == 0 {
		return nil, fmt.Errorf("nn: empty training set")
	}
	if cfg.Loss == CrossEntropy {
		for i, y := range train.Y {
			if y != math.Trunc(y) || y < 0 || y >= float64(cfg.OutDim) {
				return nil, fmt.Errorf("nn: label %v of example %d is not a class in [0, %d)", y, i, cfg.OutDim)
			}
		}
	}
	sizes := append([]int{train.Dim()}, cfg.Hidden...)
	sizes = append(sizes, cfg.OutDim)
	model, err := NewMLP(sizes, cfg.Activation, cfg.Loss, cfg.Dropout,
		cfg.Init, streams.Get(xrand.VarInit))
	if err != nil {
		return nil, err
	}
	decay := cfg.LRDecay
	if decay == 0 {
		decay = 1
	}
	order := make([]int, train.N())
	for i := range order {
		order[i] = i
	}
	return &Trainer{
		cfg: cfg, model: model, optim: newOptimState(model, cfg.Algo),
		streams: streams, train: train, order: order,
		lr: cfg.LR, decay: decay,
		losses: make([]float64, 0, min(cfg.Epochs, maxPresizedEpochs)),
		yBuf:   make([]float64, cfg.BatchSize),
	}, nil
}

// Done reports whether all configured epochs have run.
func (t *Trainer) Done() bool { return t.epoch >= t.cfg.Epochs }

// Epoch runs one training epoch. Calling it after Done is an error.
func (t *Trainer) Epoch() error {
	if t.Done() {
		return fmt.Errorf("nn: training already finished (%d epochs)", t.cfg.Epochs)
	}
	orderRng := t.streams.Get(xrand.VarOrder)
	dropoutRng := t.streams.Get(xrand.VarDropout)
	augmentRng := t.streams.Get(xrand.VarAugment)
	orderRng.ShuffleInts(t.order)
	n := t.train.N()
	epochLoss, batches := 0.0, 0
	for start := 0; start < n; start += t.cfg.BatchSize {
		end := start + t.cfg.BatchSize
		if end > n {
			end = n
		}
		idx := t.order[start:end]
		xb := augment.BatchInto(&t.ws.batch, t.train.X, idx, t.cfg.Augment, augmentRng)
		yb := t.yBuf[:len(idx)]
		for i, j := range idx {
			yb[i] = t.train.Y[j]
		}
		loss, grad := t.batchGradient(xb, yb, dropoutRng)
		applyUpdate(t.model, t.optim, grad, t.cfg, t.lr)
		epochLoss += loss
		batches++
	}
	t.losses = append(t.losses, epochLoss/float64(batches))
	t.lr *= t.decay
	t.epoch++
	return nil
}

// Result returns the training result accumulated so far.
func (t *Trainer) Result() *TrainResult {
	return &TrainResult{Model: t.model, EpochLosses: append([]float64(nil), t.losses...)}
}
