package nn

import (
	"testing"

	"varbench/internal/xrand"
)

func adamConfig() TrainConfig {
	cfg := baseConfig(3, CrossEntropy)
	cfg.Algo = Adam
	cfg.LR = 0.01
	cfg.Momentum = 0 // unused by Adam
	return cfg
}

func TestAdamLearns(t *testing.T) {
	train := toyClassification(600, 1)
	test := toyClassification(400, 2)
	res, err := Train(adamConfig(), train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(res.Model, test); acc < 0.9 {
		t.Errorf("Adam test accuracy = %v, want > 0.9", acc)
	}
}

func TestAdamBitReproducible(t *testing.T) {
	train := toyClassification(200, 1)
	cfg := adamConfig()
	cfg.Epochs = 4
	cfg.Dropout = 0.2
	a, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	if !identicalModels(a.Model, b.Model) {
		t.Fatal("Adam training not reproducible")
	}
}

func TestAdamDiffersFromSGD(t *testing.T) {
	train := toyClassification(200, 1)
	sgdCfg := baseConfig(3, CrossEntropy)
	sgdCfg.Epochs = 2
	adamCfg := sgdCfg
	adamCfg.Algo = Adam
	a, err := Train(sgdCfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(adamCfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if identicalModels(a.Model, b.Model) {
		t.Fatal("Adam produced identical weights to SGD")
	}
}

func TestAdamDefaults(t *testing.T) {
	b1, b2, eps := adamDefaults(0, 0, 0)
	if b1 != 0.9 || b2 != 0.999 || eps != 1e-8 {
		t.Errorf("defaults = %v %v %v", b1, b2, eps)
	}
	b1, b2, eps = adamDefaults(0.8, 0.99, 1e-6)
	if b1 != 0.8 || b2 != 0.99 || eps != 1e-6 {
		t.Error("explicit values overwritten")
	}
}
