package nn

import (
	"strings"
	"testing"

	"varbench/internal/augment"
	"varbench/internal/data"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

func TestNewTrainerRejectsUntrainableInputs(t *testing.T) {
	train := toyClassification(40, 1) // labels 0, 1, 2
	withLabel := func(y float64) *data.Dataset {
		d := toyClassification(40, 1)
		d.Y[17] = y
		return d
	}
	cases := []struct {
		name  string
		edit  func(*TrainConfig)
		train *data.Dataset
		want  string
	}{
		{"empty training set", nil, &data.Dataset{X: tensor.NewMatrix(0, train.Dim()), NumClasses: 3}, "empty training set"},
		{"negative hidden width", func(c *TrainConfig) { c.Hidden = []int{-4} }, train, "hidden"},
		{"zero hidden width", func(c *TrainConfig) { c.Hidden = []int{16, 0} }, train, "hidden"},
		{"label at OutDim", func(c *TrainConfig) { c.OutDim = 2 }, train, "label"},
		{"negative label", nil, withLabel(-1), "label"},
		{"fractional label", nil, withLabel(1.5), "label"},
	}
	for _, tc := range cases {
		cfg := baseConfig(3, CrossEntropy)
		if tc.edit != nil {
			tc.edit(&cfg)
		}
		_, err := NewTrainer(cfg, tc.train, xrand.NewStreams(1))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewTrainer error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	// Regression targets are not class indices: any real value trains.
	reg := toyRegression(40, 1)
	reg.Y[3] = -7.25
	if _, err := NewTrainer(baseConfig(1, MSELoss), reg, xrand.NewStreams(1)); err != nil {
		t.Errorf("MSE trainer rejected a real-valued target: %v", err)
	}
}

func TestEpochAllocatesNothing(t *testing.T) {
	// The shape of casestudy.Tiny: 8 → 8 → 3 with dropout and jitter. 300
	// rows make a short last batch, so the workspace shrinks and grows back
	// within every epoch.
	train := data.NewGaussianMixture("tiny-shaped", 3, 8, 0.8, 1.0, 7).Sample(300, xrand.New(1))
	cfg := TrainConfig{
		Hidden:      []int{8},
		Activation:  ReLU,
		Loss:        CrossEntropy,
		OutDim:      3,
		Init:        GlorotUniform{},
		Dropout:     0.1,
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Epochs:      3, // a warm-up, AllocsPerRun's own warm-up, the measured epoch
		BatchSize:   32,
		Augment:     augment.Jitter{Std: 0.1},
		Reducer:     tensor.ReduceSequential,
	}
	tr, err := NewTrainer(cfg, train, xrand.NewStreams(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun truncates its mean to an integer, so a single measured
	// run is the strict form: one allocation in the epoch fails it.
	allocs := testing.AllocsPerRun(1, func() {
		if err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm Epoch allocates %v times, want 0", allocs)
	}
	if !tr.Done() {
		t.Fatalf("trainer ran %d of %d epochs", len(tr.Result().EpochLosses), cfg.Epochs)
	}
}
