package nn

import (
	"testing"

	"varbench/internal/xrand"
)

func identicalModels(a, b *MLP) bool {
	for l := range a.Weights {
		for i := range a.Weights[l].Data {
			if a.Weights[l].Data[i] != b.Weights[l].Data[i] {
				return false
			}
		}
		for i := range a.Biases[l] {
			if a.Biases[l][i] != b.Biases[l][i] {
				return false
			}
		}
	}
	return true
}

func TestTrainerMatchesTrain(t *testing.T) {
	train := toyClassification(200, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Dropout = 0.2
	cfg.Epochs = 4

	ref, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrainer(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	for !tr.Done() {
		if err := tr.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	if !identicalModels(ref.Model, tr.model) {
		t.Fatal("Trainer diverged from Train")
	}
	res := tr.Result()
	if len(res.EpochLosses) != 4 {
		t.Fatalf("epoch losses = %d", len(res.EpochLosses))
	}
	for i := range res.EpochLosses {
		if res.EpochLosses[i] != ref.EpochLosses[i] {
			t.Fatal("loss trajectories differ")
		}
	}
}

func TestTrainerEpochAfterDone(t *testing.T) {
	train := toyClassification(50, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Epochs = 1
	tr, err := NewTrainer(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Epoch(); err != nil {
		t.Fatal(err)
	}
	if !tr.Done() {
		t.Fatal("should be done after 1 epoch")
	}
	if err := tr.Epoch(); err == nil {
		t.Fatal("Epoch after Done should error")
	}
}
