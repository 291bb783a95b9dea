// Package casestudy defines the five benchmark case studies of the paper
// (Section 2.2, Appendix D), each mapped onto a synthetic substrate that
// preserves the original's variance structure:
//
//   - CIFAR10-VGG11  → 10-class Gaussian mixture + MLP with augmentation
//   - Glue-SST2 BERT → frozen-encoder text task + small fine-tuned head
//   - Glue-RTE BERT  → same family, tiny dataset and test set
//   - PascalVOC FCN  → grid segmentation task, mean-IoU metric
//   - MHC-I MLP      → peptide binding-affinity regression, AUC metric
//
// Search spaces and default hyperparameters mirror the shapes of Tables 2,
// 3, 5 and 6 (log vs linear dimensions, which parameters are tuned), scaled
// to substrate-appropriate ranges.
package casestudy

import (
	"fmt"
	"math"

	"varbench/internal/augment"
	"varbench/internal/data"
	"varbench/internal/hpo"
	"varbench/internal/metrics"
	"varbench/internal/nn"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
)

// Study is a concrete pipeline.Task backed by a synthetic distribution.
type Study struct {
	name     string
	space    hpo.Space
	defaults hpo.Params
	sources  []xrand.Var
	split    func(r *xrand.Source) (data.TrainValidTest, error)
	build    func(p hpo.Params) (nn.TrainConfig, error)
	measure  func(m *nn.MLP, d *data.Dataset) float64
}

// Sources returns the ξO sources of variation that apply to this study (the
// Figure 1 rows present for its column; e.g. augmentation only exists for
// the image task, dropout only where the model uses it).
func (s *Study) Sources() []xrand.Var { return append([]xrand.Var(nil), s.sources...) }

var _ pipeline.Task = (*Study)(nil)

// Name implements pipeline.Task.
func (s *Study) Name() string { return s.name }

// Space implements pipeline.Task.
func (s *Study) Space() hpo.Space { return s.space }

// Defaults implements pipeline.Task.
func (s *Study) Defaults() hpo.Params { return s.defaults.Clone() }

// Split implements pipeline.Task.
func (s *Study) Split(r *xrand.Source) (data.TrainValidTest, error) { return s.split(r) }

// Build implements pipeline.Task.
func (s *Study) Build(p hpo.Params) (nn.TrainConfig, error) { return s.build(p) }

// Measure implements pipeline.Task.
func (s *Study) Measure(m *nn.MLP, d *data.Dataset) float64 { return s.measure(m, d) }

// accuracyMeasure evaluates classification accuracy.
func accuracyMeasure(m *nn.MLP, d *data.Dataset) float64 {
	pred := m.PredictLabels(d.X)
	target := make([]int, d.N())
	for i, y := range d.Y {
		target[i] = int(y)
	}
	return metrics.Accuracy(pred, target)
}

// CIFAR10VGG11 is the image-classification case study: a 10-class Gaussian
// mixture with jitter/crop-style augmentation, stratified bootstrap splits
// (Appendix D.1), and the Table 2 search space shape (log lr, log weight
// decay, linear momentum, linear LR-decay γ).
func CIFAR10VGG11(structSeed uint64) *Study {
	dist := data.NewGaussianMixture("cifar10-vgg11", 10, 16, 0.78, 1.0, structSeed)
	pool := dist.Sample(6000, xrand.New(structSeed^0x5EED))
	return &Study{
		name:    "cifar10-vgg11",
		sources: []xrand.Var{xrand.VarDataSplit, xrand.VarAugment, xrand.VarOrder, xrand.VarInit},
		space: hpo.Space{
			{Name: "lr", Lo: 0.001, Hi: 0.3, Log: true},
			{Name: "weight_decay", Lo: 1e-6, Hi: 1e-2, Log: true},
			{Name: "momentum", Lo: 0.5, Hi: 0.99},
			{Name: "lr_decay", Lo: 0.96, Hi: 0.999},
		},
		defaults: hpo.Params{
			"lr": 0.03, "weight_decay": 0.002, "momentum": 0.9, "lr_decay": 0.97,
		},
		split: func(r *xrand.Source) (data.TrainValidTest, error) {
			// Per class: 120 train (bootstrap), 30 valid, 100 test —
			// the large-test-set regime of the original (n′=10000).
			return data.StratifiedOOBSplit(pool, 120, 30, 100, r)
		},
		build: func(p hpo.Params) (nn.TrainConfig, error) {
			if err := requireParams(p, "lr", "weight_decay", "momentum", "lr_decay"); err != nil {
				return nn.TrainConfig{}, err
			}
			return nn.TrainConfig{
				Hidden:      []int{32},
				Activation:  nn.ReLU,
				Loss:        nn.CrossEntropy,
				OutDim:      10,
				Init:        nn.GlorotUniform{},
				LR:          p["lr"],
				WeightDecay: p["weight_decay"],
				Momentum:    p["momentum"],
				LRDecay:     p["lr_decay"],
				Epochs:      12,
				BatchSize:   128,
				Augment:     augment.Pipeline{augment.Jitter{Std: 0.15}, augment.Mask{Frac: 0.1}},
			}, nil
		},
		measure: accuracyMeasure,
	}
}

// SST2BERT is the large sentiment task: a frozen "pretrained" encoder with a
// small trainable head whose initialization std is itself a hyperparameter
// (Table 3). Splits are plain (non-stratified) out-of-bootstrap, like
// Appendix D.2.
func SST2BERT(structSeed uint64) *Study {
	dist := data.NewTextTopics("sst2-bert", 300, 24, 24, 2.4, 0.55, structSeed+1)
	pool := dist.Sample(4000, xrand.New(structSeed^0xBEEF))
	return textStudy("sst2-bert", pool, 1200, 200, 250)
}

// RTEBERT is the small entailment task: same family as SST2 but with ~2.5k
// examples and a tiny test set (the paper's n′=277 high-variance regime),
// and a weaker class signal (RTE accuracy ≈ 66% vs SST2 ≈ 95%).
func RTEBERT(structSeed uint64) *Study {
	dist := data.NewTextTopics("rte-bert", 300, 16, 24, 0.55, 0.5, structSeed+2)
	pool := dist.Sample(1200, xrand.New(structSeed^0xFACE))
	return textStudy("rte-bert", pool, 450, 120, 70)
}

func textStudy(name string, pool *data.Dataset, nTrain, nValid, nTest int) *Study {
	return &Study{
		name:    name,
		sources: []xrand.Var{xrand.VarDataSplit, xrand.VarOrder, xrand.VarInit, xrand.VarDropout},
		space: hpo.Space{
			{Name: "lr", Lo: 0.005, Hi: 0.5, Log: true},
			{Name: "weight_decay", Lo: 1e-5, Hi: 0.1, Log: true},
			{Name: "init_std", Lo: 0.01, Hi: 0.5, Log: true},
		},
		defaults: hpo.Params{
			"lr": 0.1, "weight_decay": 1e-4, "init_std": 0.2,
		},
		split: func(r *xrand.Source) (data.TrainValidTest, error) {
			return data.OOBSplit(pool, nTrain, nValid, nTest, r)
		},
		build: func(p hpo.Params) (nn.TrainConfig, error) {
			if err := requireParams(p, "lr", "weight_decay", "init_std"); err != nil {
				return nn.TrainConfig{}, err
			}
			return nn.TrainConfig{
				Hidden:     []int{16},
				Activation: nn.Tanh,
				Loss:       nn.CrossEntropy,
				OutDim:     2,
				Init:       nn.Normal{Std: p["init_std"]},
				Dropout:    0.1, // fixed, like the original BERT head
				// Adam with the Table 3 fixed coefficients (β1=0.9,
				// β2=0.999), like the original BERT fine-tuning.
				Algo:        nn.Adam,
				Beta1:       0.9,
				Beta2:       0.999,
				LR:          p["lr"] / 10, // Adam needs a smaller step than SGD
				WeightDecay: p["weight_decay"],
				Epochs:      8,
				BatchSize:   32,
			}, nil
		},
		measure: accuracyMeasure,
	}
}

// PascalVOCResNet is the segmentation case study: a grid-cell labelling task
// measured in mean IoU, with bootstrap performed over whole images (cells of
// one image never straddle splits). The search space follows Table 5: log
// lr, linear momentum, log weight decay.
func PascalVOCResNet(structSeed uint64) *Study {
	const grid = 6
	dist := data.NewSegmentation("pascalvoc-resnet", grid, 6, 24, 3, 2.6, structSeed+3)
	cells := dist.CellsPerImage()
	const poolImages = 130
	pool := dist.Sample(poolImages*cells, xrand.New(structSeed^0xD06))
	return &Study{
		name:    "pascalvoc-resnet",
		sources: []xrand.Var{xrand.VarDataSplit, xrand.VarOrder, xrand.VarInit, xrand.VarNumericalNoise},
		space: hpo.Space{
			{Name: "lr", Lo: 1e-4, Hi: 0.5, Log: true},
			{Name: "momentum", Lo: 0.5, Hi: 0.99},
			{Name: "weight_decay", Lo: 1e-8, Hi: 0.1, Log: true},
		},
		defaults: hpo.Params{
			"lr": 0.05, "momentum": 0.9, "weight_decay": 1e-6,
		},
		split: func(r *xrand.Source) (data.TrainValidTest, error) {
			return groupOOBSplit(pool, poolImages, cells, 70, 25, 25, r)
		},
		build: func(p hpo.Params) (nn.TrainConfig, error) {
			if err := requireParams(p, "lr", "momentum", "weight_decay"); err != nil {
				return nn.TrainConfig{}, err
			}
			return nn.TrainConfig{
				Hidden:      []int{32},
				Activation:  nn.ReLU,
				Loss:        nn.CrossEntropy,
				OutDim:      6,
				Init:        nn.He{},
				LR:          p["lr"],
				WeightDecay: p["weight_decay"],
				Momentum:    p["momentum"],
				Epochs:      8,
				BatchSize:   64,
			}, nil
		},
		measure: func(m *nn.MLP, d *data.Dataset) float64 {
			pred := m.PredictLabels(d.X)
			target := make([]int, d.N())
			for i, y := range d.Y {
				target[i] = int(y)
			}
			return metrics.MeanIoU(pred, target, 6)
		},
	}
}

// groupOOBSplit bootstraps whole groups (images): train images are drawn
// with replacement, valid/test images from the out-of-bootstrap pool.
func groupOOBSplit(pool *data.Dataset, nGroups, groupSize, nTrain, nValid, nTest int,
	r *xrand.Source) (data.TrainValidTest, error) {
	gTrain, oob := data.BootstrapIndices(nGroups, nTrain, r)
	if len(oob) < nValid+nTest {
		return data.TrainValidTest{}, fmt.Errorf(
			"casestudy: image OOB pool %d too small for %d+%d", len(oob), nValid, nTest)
	}
	rest := data.SampleWithoutReplacement(oob, nValid+nTest, r)
	expand := func(groups []int) []int {
		idx := make([]int, 0, len(groups)*groupSize)
		for _, g := range groups {
			for c := 0; c < groupSize; c++ {
				idx = append(idx, g*groupSize+c)
			}
		}
		return idx
	}
	return data.TrainValidTest{
		Train: pool.Subset(expand(gTrain)),
		Valid: pool.Subset(expand(rest[:nValid])),
		Test:  pool.Subset(expand(rest[nValid:])),
	}, nil
}

// MHCMLP is the peptide-binding regression case study (Appendix D.5): a
// shallow MLP on one-hot (allele, peptide) pairs, trained with MSE and
// evaluated by ROC-AUC for binder prediction (Table 8). Its hidden-layer
// width is a tuned hyperparameter (Table 6), and the three data pools are
// bootstrapped independently like the original's separate train/valid/test
// sources.
func MHCMLP(structSeed uint64) *Study {
	_, trainPool, validPool, testPool, _ := MHCPools(structSeed)
	return &Study{
		name:    "mhc-mlp",
		sources: []xrand.Var{xrand.VarDataSplit, xrand.VarOrder, xrand.VarInit},
		space: hpo.Space{
			{Name: "hidden", Lo: 4, Hi: 64},
			{Name: "weight_decay", Lo: 1e-6, Hi: 1, Log: true},
		},
		defaults: hpo.Params{"hidden": 16, "weight_decay": 1e-3},
		split: func(r *xrand.Source) (data.TrainValidTest, error) {
			boot := func(d *data.Dataset) *data.Dataset {
				idx, _ := data.BootstrapIndices(d.N(), d.N(), r)
				return d.Subset(idx)
			}
			return data.TrainValidTest{
				Train: boot(trainPool),
				Valid: boot(validPool),
				Test:  boot(testPool),
			}, nil
		},
		build: func(p hpo.Params) (nn.TrainConfig, error) {
			if err := requireParams(p, "hidden", "weight_decay"); err != nil {
				return nn.TrainConfig{}, err
			}
			hidden := int(math.Round(p["hidden"]))
			if hidden < 1 {
				hidden = 1
			}
			return nn.TrainConfig{
				Hidden:      []int{hidden},
				Activation:  nn.Tanh,
				Loss:        nn.MSELoss,
				OutDim:      1,
				Init:        nn.GlorotUniform{},
				LR:          0.05,
				WeightDecay: p["weight_decay"],
				Momentum:    0.9,
				Epochs:      12,
				BatchSize:   32,
			}, nil
		},
		measure: AUCMeasure,
	}
}

// MHCPools returns the peptide distribution and the fixed train/valid/test
// pools used by MHCMLP, plus an out-of-domain "HPV-like" evaluation pool:
// the same alleles and binding motifs measured with substantially higher
// assay noise, standing in for the external HPV test set of Table 8 on which
// every model's AUC degrades.
func MHCPools(structSeed uint64) (dist *data.Peptide, train, valid, test, hpv *data.Dataset) {
	dist = data.NewPeptide("mhc-mlp", 8, 6, 4, 8, 0.35, structSeed+4)
	train = dist.Sample(1600, xrand.New(structSeed^0xAAA))
	valid = dist.Sample(400, xrand.New(structSeed^0xBBB))
	test = dist.Sample(400, xrand.New(structSeed^0xCCC))
	// Same structural seed ⇒ identical pockets and motifs; only the
	// measurement noise differs.
	hpvDist := data.NewPeptide("mhc-hpv", 8, 6, 4, 8, 1.1, structSeed+4)
	hpv = hpvDist.Sample(400, xrand.New(structSeed^0xDDD))
	return dist, train, valid, test, hpv
}

// AUCMeasure scores a regression model by ROC-AUC of predicting binders
// (affinity > 0.5), the MHC evaluation of Table 8.
func AUCMeasure(m *nn.MLP, d *data.Dataset) float64 {
	pred := m.PredictValues(d.X)
	pos := make([]bool, d.N())
	for i, y := range d.Y {
		pos[i] = y > 0.5
	}
	return metrics.AUC(pred, pos)
}

// All returns the five case studies in the paper's Figure 1 column order.
func All(structSeed uint64) []*Study {
	return []*Study{
		RTEBERT(structSeed),
		SST2BERT(structSeed),
		MHCMLP(structSeed),
		PascalVOCResNet(structSeed),
		CIFAR10VGG11(structSeed),
	}
}

// ByName returns the case study with the given name.
func ByName(name string, structSeed uint64) (*Study, error) {
	for _, s := range All(structSeed) {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("casestudy: unknown study %q", name)
}

// Tiny returns a miniature three-class task for fast tests and examples: the
// same structure as CIFAR10VGG11 at a fraction of the cost.
func Tiny(structSeed uint64) *Study {
	dist := data.NewGaussianMixture("tiny", 3, 8, 0.8, 1.0, structSeed)
	pool := dist.Sample(900, xrand.New(structSeed^0x717))
	return &Study{
		name:    "tiny",
		sources: []xrand.Var{xrand.VarDataSplit, xrand.VarAugment, xrand.VarOrder, xrand.VarInit, xrand.VarDropout},
		space: hpo.Space{
			{Name: "lr", Lo: 0.001, Hi: 0.5, Log: true},
			{Name: "weight_decay", Lo: 1e-6, Hi: 0.1, Log: true},
		},
		defaults: hpo.Params{"lr": 0.05, "weight_decay": 1e-4},
		split: func(r *xrand.Source) (data.TrainValidTest, error) {
			return data.OOBSplit(pool, 300, 60, 80, r)
		},
		build: func(p hpo.Params) (nn.TrainConfig, error) {
			if err := requireParams(p, "lr", "weight_decay"); err != nil {
				return nn.TrainConfig{}, err
			}
			return nn.TrainConfig{
				Hidden:      []int{8},
				Activation:  nn.ReLU,
				Loss:        nn.CrossEntropy,
				OutDim:      3,
				Init:        nn.GlorotUniform{},
				Dropout:     0.1,
				LR:          p["lr"],
				WeightDecay: p["weight_decay"],
				Momentum:    0.9,
				Epochs:      6,
				BatchSize:   32,
				Augment:     augment.Jitter{Std: 0.1},
			}, nil
		},
		measure: accuracyMeasure,
	}
}

func requireParams(p hpo.Params, names ...string) error {
	for _, n := range names {
		if _, ok := p[n]; !ok {
			return fmt.Errorf("casestudy: missing hyperparameter %q", n)
		}
	}
	return nil
}
