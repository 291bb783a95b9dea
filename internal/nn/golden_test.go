//go:build amd64

// The hashes below pin training numerics bit for bit across versions of the
// training loop and the tensor kernels: a change that reorders one sum,
// draws one random number more or less, or changes a zero-skip rule moves
// them. The build constraint keeps the test to amd64, where the hashes hold
// at every GOAMD64 level: the amd64 compiler fuses a multiply-add only when
// the code calls math.FMA. arm64 lets the compiler contract x*y+z into a
// fused multiply-add, so its bits legitimately differ. math.Exp's amd64
// assembly also takes an FMA path at run time on CPUs that have one; the
// hashes were recorded on such a CPU, as every x86-64-v3 processor is.

package nn_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"varbench/internal/augment"
	"varbench/internal/casestudy"
	"varbench/internal/data"
	"varbench/internal/nn"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// trainingHash is an FNV-1a hash over the bit patterns of a trained model's
// weights and biases, its epoch losses and its predictions on test: labels
// for classification, values for regression.
func trainingHash(res *nn.TrainResult, test *data.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		h.Write(buf[:])
	}
	m := res.Model
	for l := range m.Weights {
		for _, v := range m.Weights[l].Data {
			put(math.Float64bits(v))
		}
		for _, v := range m.Biases[l] {
			put(math.Float64bits(v))
		}
	}
	for _, v := range res.EpochLosses {
		put(math.Float64bits(v))
	}
	if m.Loss == nn.CrossEntropy {
		for _, c := range m.PredictLabels(test.X) {
			put(uint64(c))
		}
	} else {
		for _, v := range m.PredictValues(test.X) {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// goldenToyConfig is a small classifier on an 8-dimensional, 3-class
// mixture; each toy case varies one part of it.
func goldenToyConfig() nn.TrainConfig {
	return nn.TrainConfig{
		Hidden:      []int{12},
		Activation:  nn.ReLU,
		Loss:        nn.CrossEntropy,
		OutDim:      3,
		Init:        nn.GlorotUniform{},
		LR:          0.05,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		LRDecay:     0.97,
		Epochs:      5,
		BatchSize:   32,
	}
}

func TestTrainingGoldenHashes(t *testing.T) {
	studies := []struct {
		study *casestudy.Study
		want  []uint64 // one hash per seed 1, 2, 3
	}{
		{casestudy.Tiny(1), []uint64{0x1dbc40d3603189c5, 0x23f41625be2f186b, 0xae9a06e767dc358a}},
		{casestudy.CIFAR10VGG11(1), []uint64{0xd6624c128dbcff8a, 0x6b07dfff5796a7eb, 0xa325267f8bb9bef8}},
		{casestudy.SST2BERT(1), []uint64{0x4178d0ed7aa02e3a, 0xc2270abfc49f6140, 0xbf2ad5f403e788af}},
		{casestudy.MHCMLP(1), []uint64{0x8922778a710600ee, 0xd1fd3e08067b46cf, 0x0a4b770784e50bb9}},
	}
	for _, s := range studies {
		for i, want := range s.want {
			seed := uint64(i + 1)
			streams := xrand.NewStreams(seed)
			split, err := s.study.Split(streams.Get(xrand.VarDataSplit))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := s.study.Build(s.study.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if s.study.Name() != "tiny" && cfg.Epochs > 3 {
				cfg.Epochs = 3
			}
			res, err := nn.Train(cfg, split.Train, streams)
			if err != nil {
				t.Fatal(err)
			}
			if got := trainingHash(res, split.Test); got != want {
				t.Errorf("%s seed %d: hash %#016x, want %#016x", s.study.Name(), seed, got, want)
			}
		}
	}

	mixture := data.NewGaussianMixture("golden", 3, 8, 0.8, 1.0, 11)
	train := mixture.Sample(200, xrand.New(12))
	test := mixture.Sample(100, xrand.New(13))
	toys := []struct {
		name string
		edit func(*nn.TrainConfig)
		want uint64
	}{
		{"relu-dropout", func(c *nn.TrainConfig) {
			c.Dropout = 0.2
			c.Augment = augment.Jitter{Std: 0.1}
		}, 0xa347ae3e1d10d720},
		{"tanh-two-hidden", func(c *nn.TrainConfig) {
			c.Hidden = []int{12, 6}
			c.Activation = nn.Tanh
			c.Init = nn.He{}
		}, 0x29852355877acbcf},
		{"adam", func(c *nn.TrainConfig) {
			c.Algo = nn.Adam
			c.LR = 0.01
		}, 0xf990442a0684af10},
		{"parallel-deterministic-3-shards", func(c *nn.TrainConfig) {
			c.Dropout = 0.1
			c.Reducer = tensor.ReduceParallelDeterministic
			c.Shards = 3
		}, 0xc23b62eabb9e1d69},
	}
	for _, toy := range toys {
		cfg := goldenToyConfig()
		toy.edit(&cfg)
		res, err := nn.Train(cfg, train, xrand.NewStreams(7))
		if err != nil {
			t.Fatal(err)
		}
		if got := trainingHash(res, test); got != toy.want {
			t.Errorf("toy %s: hash %#016x, want %#016x", toy.name, got, toy.want)
		}
	}
}
