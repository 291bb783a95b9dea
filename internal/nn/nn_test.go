package nn

import (
	"math"
	"testing"

	"varbench/internal/data"
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

func toyClassification(n int, seed uint64) *data.Dataset {
	gm := data.NewGaussianMixture("toy", 3, 6, 3, 1, 7)
	return gm.Sample(n, xrand.New(seed))
}

func toyRegression(n int, seed uint64) *data.Dataset {
	p := data.NewPeptide("toy-reg", 6, 4, 2, 3, 0.2, 7)
	return p.Sample(n, xrand.New(seed))
}

func baseConfig(out int, loss Loss) TrainConfig {
	return TrainConfig{
		Hidden:      []int{16},
		Activation:  ReLU,
		Loss:        loss,
		OutDim:      out,
		Init:        GlorotUniform{},
		LR:          0.1,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		LRDecay:     0.98,
		Epochs:      30,
		BatchSize:   32,
	}
}

// gradCheck compares analytic gradients against central finite differences
// on a small model. Returns the maximum relative error over a sample of
// nProbe parameters.
func gradCheck(model *MLP, x *tensor.Matrix, y []float64, nProbe int, r *xrand.Source) float64 {
	const eps = 1e-6
	_, grad := model.lossAndGrad(new(workspace), x, y, nil)
	probe := new(workspace) // grad lives in the first workspace
	maxErr := 0.0
	for p := 0; p < nProbe; p++ {
		l := r.Intn(model.NumLayers())
		i := r.Intn(len(model.Weights[l].Data))
		orig := model.Weights[l].Data[i]
		model.Weights[l].Data[i] = orig + eps
		lossPlus, _ := model.lossAndGrad(probe, x, y, nil)
		model.Weights[l].Data[i] = orig - eps
		lossMinus, _ := model.lossAndGrad(probe, x, y, nil)
		model.Weights[l].Data[i] = orig
		numeric := (lossPlus - lossMinus) / (2 * eps)
		analytic := grad.w[l].Data[i]
		denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic))
		err := math.Abs(numeric-analytic) / denom
		if err > maxErr {
			maxErr = err
		}
	}
	return maxErr
}

func TestGradCheckCrossEntropy(t *testing.T) {
	d := toyClassification(20, 1)
	r := xrand.New(2)
	m, err := NewMLP([]int{d.Dim(), 8, 3}, Tanh, CrossEntropy, 0, GlorotUniform{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if errRate := gradCheck(m, d.X, d.Y, 60, r); errRate > 1e-4 {
		t.Errorf("cross-entropy gradient check failed: max rel err %v", errRate)
	}
}

func TestGradCheckMSE(t *testing.T) {
	d := toyRegression(20, 1)
	r := xrand.New(3)
	m, err := NewMLP([]int{d.Dim(), 8, 1}, Tanh, MSELoss, 0, He{}, r)
	if err != nil {
		t.Fatal(err)
	}
	if errRate := gradCheck(m, d.X, d.Y, 60, r); errRate > 1e-4 {
		t.Errorf("MSE gradient check failed: max rel err %v", errRate)
	}
}

func TestGradCheckReLU(t *testing.T) {
	d := toyClassification(16, 4)
	r := xrand.New(5)
	m, err := NewMLP([]int{d.Dim(), 10, 10, 3}, ReLU, CrossEntropy, 0, He{}, r)
	if err != nil {
		t.Fatal(err)
	}
	// ReLU kinks can make individual probes fail exactly at 0; tolerance is
	// looser but still tight enough to catch systematic errors.
	if errRate := gradCheck(m, d.X, d.Y, 60, r); errRate > 1e-3 {
		t.Errorf("ReLU gradient check failed: max rel err %v", errRate)
	}
}

func TestTrainingLearnsClassification(t *testing.T) {
	train := toyClassification(600, 1)
	test := toyClassification(400, 2)
	res, err := Train(baseConfig(3, CrossEntropy), train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(res.Model, test); acc < 0.9 {
		t.Errorf("test accuracy = %v, want > 0.9 on separable mixture", acc)
	}
	// Loss must decrease overall.
	first, last := res.EpochLosses[0], res.EpochLosses[len(res.EpochLosses)-1]
	if last >= first {
		t.Errorf("loss did not decrease: %v → %v", first, last)
	}
}

func TestTrainingLearnsRegression(t *testing.T) {
	train := toyRegression(800, 1)
	test := toyRegression(400, 2)
	cfg := baseConfig(1, MSELoss)
	cfg.LR = 0.05
	cfg.Epochs = 60
	res, err := Train(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	pred := res.Model.PredictValues(test.X)
	// Compare against predicting the mean.
	meanY := 0.0
	for _, y := range train.Y {
		meanY += y
	}
	meanY /= float64(train.N())
	var mseModel, mseMean float64
	for i, y := range test.Y {
		mseModel += (pred[i] - y) * (pred[i] - y)
		mseMean += (meanY - y) * (meanY - y)
	}
	if mseModel >= mseMean*0.8 {
		t.Errorf("regression barely beats mean predictor: %v vs %v", mseModel, mseMean)
	}
}

func TestTrainingBitReproducible(t *testing.T) {
	// Same ξ (all streams) ⇒ bit-identical weights. This is the Appendix A
	// reproducibility requirement.
	train := toyClassification(200, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Dropout = 0.2
	cfg.Epochs = 5
	a, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	for l := range a.Model.Weights {
		for i := range a.Model.Weights[l].Data {
			if a.Model.Weights[l].Data[i] != b.Model.Weights[l].Data[i] {
				t.Fatalf("weights differ at layer %d index %d", l, i)
			}
		}
	}
}

func TestVaryingOneSourceChangesResult(t *testing.T) {
	train := toyClassification(200, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Dropout = 0.2
	cfg.Epochs = 3
	base, err := Train(cfg, train, xrand.NewStreams(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []xrand.Var{xrand.VarInit, xrand.VarOrder, xrand.VarDropout} {
		streams := xrand.NewStreams(42)
		streams.Reseed(v, 999)
		alt, err := Train(cfg, train, streams)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for l := range base.Model.Weights {
			for i := range base.Model.Weights[l].Data {
				if base.Model.Weights[l].Data[i] != alt.Model.Weights[l].Data[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("reseeding %s did not change the trained weights", v)
		}
	}
}

func TestDropoutOnlyAppliedInTraining(t *testing.T) {
	d := toyClassification(50, 1)
	r := xrand.New(1)
	m, err := NewMLP([]int{d.Dim(), 32, 3}, ReLU, CrossEntropy, 0.5, GlorotUniform{}, r)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Forward(d.X)
	b := m.Forward(d.X)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("inference is not deterministic: dropout leaked into Forward")
		}
	}
}

// TestActivateMatchesElementwiseDefinition holds the fused hidden-layer
// pass to its element-by-element definition, bit for bit, on values the
// goldens never meet: v = z + bias, then ReLU (v < 0 becomes +0; −0 and NaN
// pass) or tanh, then, with dropout, mask = 1/keep where the draw is below
// keep and 0 elsewhere, and z = v·mask. Every special z meets every bias,
// and the draws include keep itself and its neighbours.
func TestActivateMatchesElementwiseDefinition(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{-2, -1e-300, negZero, 0, 1e-300, 3, math.NaN(), math.Inf(1), math.Inf(-1)}
	bias := []float64{negZero, 0, -1, 0.5, 1e-300}
	for _, act := range []Activation{ReLU, Tanh} {
		for _, dropout := range []float64{0, 0.3} {
			m := &MLP{Activation: act, Dropout: dropout}
			keep := 1 - dropout
			z := tensor.NewMatrix(len(special), len(bias))
			for i := range z.Data {
				z.Data[i] = special[i/len(bias)]
			}
			want := z.Clone()
			var acts, mask, draws []float64
			if dropout > 0 {
				acts = make([]float64, len(z.Data))
				mask = make([]float64, len(z.Data))
				for i := range mask {
					u := []float64{0, math.Nextafter(keep, 0), keep, math.Nextafter(keep, 1), 0.999}
					mask[i] = u[(i+i/len(bias))%len(u)]
				}
				draws = append(draws, mask...)
			}
			m.activate(z, bias, acts, mask)
			for i, v := range want.Data {
				v += bias[i%len(bias)]
				if act == Tanh {
					v = math.Tanh(v)
				} else if v < 0 {
					v = 0
				}
				got, exp := []float64{z.Data[i]}, []float64{v}
				if dropout > 0 {
					mk := 0.0
					if draws[i] < keep {
						mk = 1 / keep
					}
					got = append(got, acts[i], mask[i])
					exp = []float64{v * mk, v, mk}
				}
				for k := range exp {
					if math.Float64bits(got[k]) != math.Float64bits(exp[k]) && !(math.IsNaN(got[k]) && math.IsNaN(exp[k])) {
						t.Fatalf("activation %v, dropout %v, element %d (z %v, bias %v): got %v, want %v (z, acts, mask)",
							act, dropout, i, want.Data[i], bias[i%len(bias)], got, exp)
					}
				}
			}
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := xrand.New(1)
	logits := tensor.NewMatrix(10, 5)
	for i := range logits.Data {
		logits.Data[i] = r.Normal(0, 10) // large scale: tests stability
	}
	p := logits.Clone()
	softmaxRows(p)
	for i := 0; i < p.Rows; i++ {
		sum := 0.0
		for _, v := range p.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatal("invalid probability")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestParallelShardsMatchSequential(t *testing.T) {
	// The deterministic parallel reducer must produce (nearly) the same
	// gradient as sequential: same value up to FP reassociation.
	train := toyClassification(256, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Epochs = 2
	seqRes, err := Train(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Reducer = tensor.ReduceParallelDeterministic
	cfg.Shards = 4
	parRes, err := Train(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	for l := range seqRes.Model.Weights {
		for i := range seqRes.Model.Weights[l].Data {
			diff := math.Abs(seqRes.Model.Weights[l].Data[i] - parRes.Model.Weights[l].Data[i])
			if diff > 1e-8 {
				t.Fatalf("parallel gradient diverged: |Δ| = %v", diff)
			}
		}
	}
}

func TestNondeterministicReducerProducesNumericalNoise(t *testing.T) {
	// With all seeds fixed but completion-order folding, repeated trainings
	// should differ slightly — the "numerical noise" row of Figure 1.
	train := toyClassification(256, 1)
	cfg := baseConfig(3, CrossEntropy)
	cfg.Epochs = 3
	cfg.Reducer = tensor.ReduceNondeterministic
	cfg.Shards = 4
	ref, err := Train(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for attempt := 0; attempt < 10 && !differs; attempt++ {
		alt, err := Train(cfg, train, xrand.NewStreams(1))
		if err != nil {
			t.Fatal(err)
		}
		for l := range ref.Model.Weights {
			for i := range ref.Model.Weights[l].Data {
				if ref.Model.Weights[l].Data[i] != alt.Model.Weights[l].Data[i] {
					differs = true
					break
				}
			}
		}
	}
	if !differs {
		t.Skip("scheduler produced identical fold order in all attempts (rare but possible)")
	}
	// The noise must be small relative to the weights themselves.
	alt, err := Train(cfg, train, xrand.NewStreams(1))
	if err != nil {
		t.Fatal(err)
	}
	num, den := 0.0, 0.0
	for l := range ref.Model.Weights {
		for i := range ref.Model.Weights[l].Data {
			d := ref.Model.Weights[l].Data[i] - alt.Model.Weights[l].Data[i]
			num += d * d
			den += ref.Model.Weights[l].Data[i] * ref.Model.Weights[l].Data[i]
		}
	}
	if den == 0 || num/den > 1e-2 {
		t.Errorf("numerical noise too large: relative sq norm %v", num/den)
	}
}

func TestInitializers(t *testing.T) {
	r := xrand.New(1)
	w := tensor.NewMatrix(100, 50)
	GlorotUniform{}.Init(w, r)
	limit := math.Sqrt(6.0 / 150)
	lo, hi := w.Data[0], w.Data[0]
	for _, v := range w.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < -limit || hi > limit {
		t.Errorf("Glorot bounds violated: [%v, %v] vs ±%v", lo, hi, limit)
	}
	He{}.Init(w, r)
	var sq float64
	for _, v := range w.Data {
		sq += v * v
	}
	std := math.Sqrt(sq / float64(len(w.Data)))
	want := math.Sqrt(2.0 / 100)
	if math.Abs(std-want)/want > 0.1 {
		t.Errorf("He std = %v, want ≈ %v", std, want)
	}
	Normal{Std: 0.2}.Init(w, r)
	sq = 0
	for _, v := range w.Data {
		sq += v * v
	}
	std = math.Sqrt(sq / float64(len(w.Data)))
	if math.Abs(std-0.2)/0.2 > 0.1 {
		t.Errorf("Normal std = %v, want ≈ 0.2", std)
	}
}

func TestConfigValidation(t *testing.T) {
	train := toyClassification(10, 1)
	bad := []TrainConfig{
		{},
		{OutDim: 1, LR: -1, Epochs: 1, BatchSize: 1, Init: He{}},
		{OutDim: 1, LR: 0.1, Epochs: 0, BatchSize: 1, Init: He{}},
		{OutDim: 1, LR: 0.1, Epochs: 1, BatchSize: 1, Init: He{}, Dropout: 1.0},
		{OutDim: 1, LR: 0.1, Epochs: 1, BatchSize: 1},
		{OutDim: 1, LR: math.NaN(), Epochs: 1, BatchSize: 1, Init: He{}},
		{OutDim: 1, LR: 0.1, Epochs: 1, BatchSize: 1, Init: He{}, Dropout: math.NaN()},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d passed Validate", i)
		}
		if _, err := Train(cfg, train, xrand.NewStreams(1)); err == nil {
			t.Errorf("config %d should have been rejected", i)
		}
	}
}

func accuracyOf(m *MLP, d *data.Dataset) float64 {
	pred := m.PredictLabels(d.X)
	hits := 0
	for i, p := range pred {
		if p == int(d.Y[i]) {
			hits++
		}
	}
	return float64(hits) / float64(d.N())
}
