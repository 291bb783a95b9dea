package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"varbench/internal/augment"
	"varbench/internal/data"
	"varbench/internal/xrand"
)

// Trainer is a resumable training loop. It implements the paper's Appendix A
// reproducibility protocol: training can be interrupted after any epoch,
// checkpointed (model weights, optimizer velocity, learning-rate schedule
// position AND the state of every random stream), and resumed later with
// bit-identical results. Train is a convenience wrapper that runs a Trainer
// to completion.
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

// Model returns the current model (live reference, not a copy).
func (t *Trainer) Model() *MLP { return t.model }

// Result returns the training result accumulated so far.
func (t *Trainer) Result() *TrainResult {
	return &TrainResult{Model: t.model, EpochLosses: append([]float64(nil), t.losses...)}
}

// trainerState is the serialized form of a Trainer. The configuration and
// dataset are NOT serialized: like the paper's setup, code and data must be
// supplied identically at resumption; the checkpoint carries only mutable
// state.
type trainerState struct {
	Epoch    int
	LR       float64
	Step     int
	Losses   []float64
	Weights  [][]float64
	Biases   [][]float64
	MomW     [][]float64
	MomB     [][]float64
	SecW     [][]float64 // Adam second moments; nil for SGD
	SecB     [][]float64
	Order    []int
	Streams  []byte
	NumLayer int
}

// Checkpoint serializes the complete mutable training state.
func (t *Trainer) Checkpoint() ([]byte, error) {
	st := trainerState{
		Epoch:    t.epoch,
		LR:       t.lr,
		Step:     t.optim.step,
		Losses:   append([]float64(nil), t.losses...),
		Order:    append([]int(nil), t.order...),
		Streams:  t.streams.Checkpoint(),
		NumLayer: t.model.NumLayers(),
	}
	for l := 0; l < t.model.NumLayers(); l++ {
		st.Weights = append(st.Weights, append([]float64(nil), t.model.Weights[l].Data...))
		st.Biases = append(st.Biases, append([]float64(nil), t.model.Biases[l]...))
		st.MomW = append(st.MomW, append([]float64(nil), t.optim.m.w[l].Data...))
		st.MomB = append(st.MomB, append([]float64(nil), t.optim.m.b[l]...))
		if t.optim.v != nil {
			st.SecW = append(st.SecW, append([]float64(nil), t.optim.v.w[l].Data...))
			st.SecB = append(st.SecB, append([]float64(nil), t.optim.v.b[l]...))
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("nn: checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

// ResumeTrainer rebuilds a Trainer from a checkpoint. cfg and train must be
// identical to the original run's.
func ResumeTrainer(cfg TrainConfig, train *data.Dataset, ckpt []byte) (*Trainer, error) {
	var st trainerState
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&st); err != nil {
		return nil, fmt.Errorf("nn: checkpoint decode: %w", err)
	}
	streams, err := xrand.RestoreCheckpoint(st.Streams)
	if err != nil {
		return nil, fmt.Errorf("nn: checkpoint streams: %w", err)
	}
	t, err := NewTrainer(cfg, train, streams)
	if err != nil {
		return nil, err
	}
	if t.model.NumLayers() != st.NumLayer {
		return nil, fmt.Errorf("nn: checkpoint has %d layers, config builds %d",
			st.NumLayer, t.model.NumLayers())
	}
	if len(st.Order) != train.N() {
		return nil, fmt.Errorf("nn: checkpoint order length %d, dataset has %d",
			len(st.Order), train.N())
	}
	if cfg.Algo == Adam && len(st.SecW) != st.NumLayer {
		return nil, fmt.Errorf("nn: checkpoint lacks Adam state for Adam config")
	}
	for l := 0; l < st.NumLayer; l++ {
		if len(st.Weights[l]) != len(t.model.Weights[l].Data) {
			return nil, fmt.Errorf("nn: checkpoint layer %d shape mismatch", l)
		}
		copy(t.model.Weights[l].Data, st.Weights[l])
		copy(t.model.Biases[l], st.Biases[l])
		copy(t.optim.m.w[l].Data, st.MomW[l])
		copy(t.optim.m.b[l], st.MomB[l])
		if t.optim.v != nil && l < len(st.SecW) {
			copy(t.optim.v.w[l].Data, st.SecW[l])
			copy(t.optim.v.b[l], st.SecB[l])
		}
	}
	copy(t.order, st.Order)
	t.epoch = st.Epoch
	t.lr = st.LR
	t.optim.step = st.Step
	t.losses = append(t.losses[:0], st.Losses...)
	return t, nil
}
