package casestudy

import (
	"testing"

	"varbench/internal/data"
	"varbench/internal/hpo"
	"varbench/internal/metrics"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
)

const seed = 20210301

func TestAllStudiesRunEndToEnd(t *testing.T) {
	// Each case study must train with its defaults and produce a sane
	// performance value, well above chance where applicable.
	type expect struct {
		floor, ceil float64
	}
	expects := map[string]expect{
		"cifar10-vgg11":    {0.60, 1.0},  // 10-class, chance 0.1
		"sst2-bert":        {0.75, 1.0},  // binary, strong signal
		"rte-bert":         {0.50, 0.92}, // binary, weak signal
		"pascalvoc-resnet": {0.25, 1.0},  // mIoU
		"mhc-mlp":          {0.60, 1.0},  // AUC, chance 0.5
	}
	for _, s := range All(seed) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			streams := xrand.NewStreams(1)
			split, err := s.Split(streams.Get(xrand.VarDataSplit))
			if err != nil {
				t.Fatal(err)
			}
			perf, err := pipeline.TrainEval(s, s.Defaults(), split.Train, split.Test, streams)
			if err != nil {
				t.Fatal(err)
			}
			e := expects[s.Name()]
			if perf < e.floor || perf > e.ceil {
				t.Errorf("%s default-hyperparameter performance = %v, want in [%v, %v]",
					s.Name(), perf, e.floor, e.ceil)
			}
		})
	}
}

func TestDefaultsInsideSearchSpace(t *testing.T) {
	for _, s := range All(seed) {
		def := s.Defaults()
		for _, d := range s.Space() {
			v, ok := def[d.Name]
			if !ok {
				t.Errorf("%s: default missing dimension %s", s.Name(), d.Name)
				continue
			}
			if v < d.Lo || v > d.Hi {
				t.Errorf("%s: default %s=%v outside [%v, %v]",
					s.Name(), d.Name, v, d.Lo, d.Hi)
			}
		}
		if err := s.Space().Validate(); err != nil {
			t.Errorf("%s: invalid space: %v", s.Name(), err)
		}
	}
}

func TestBuildRejectsMissingParams(t *testing.T) {
	for _, s := range All(seed) {
		if _, err := s.Build(hpo.Params{}); err == nil {
			t.Errorf("%s accepted empty hyperparameters", s.Name())
		}
	}
}

func TestSplitsAreSeeded(t *testing.T) {
	for _, s := range All(seed) {
		a, err := s.Split(xrand.New(5))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := s.Split(xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if a.Train.N() != b.Train.N() {
			t.Errorf("%s: same seed different split sizes", s.Name())
		}
		for i := range a.Test.Y {
			if a.Test.Y[i] != b.Test.Y[i] {
				t.Errorf("%s: same seed different test labels", s.Name())
				break
			}
		}
	}
}

func TestSegmentationSplitKeepsImagesWhole(t *testing.T) {
	s := PascalVOCResNet(seed)
	split, err := s.Split(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Every group in Test must appear a multiple of 36 times (whole images,
	// 6×6 grid), and no test group may appear in Valid.
	countTest := map[int]int{}
	for _, g := range split.Test.Group {
		countTest[g]++
	}
	for g, c := range countTest {
		if c%36 != 0 {
			t.Errorf("image %d split across sets: %d cells", g, c)
		}
	}
	inValid := map[int]bool{}
	for _, g := range split.Valid.Group {
		inValid[g] = true
	}
	for g := range countTest {
		if inValid[g] {
			t.Errorf("image %d appears in both valid and test", g)
		}
	}
}

func TestMHCSplitUsesSeparatePools(t *testing.T) {
	s := MHCMLP(seed)
	split, err := s.Split(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if split.Train.N() != 1600 || split.Valid.N() != 400 || split.Test.N() != 400 {
		t.Errorf("pool sizes: %d/%d/%d", split.Train.N(), split.Valid.N(), split.Test.N())
	}
}

func TestRTEHasSmallerTestThanSST2(t *testing.T) {
	// The whole point of the RTE case: a small test set with high
	// data-sampling variance (Figure 2).
	rte, err := RTEBERT(seed).Split(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sst2, err := SST2BERT(seed).Split(xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if rte.Test.N() >= sst2.Test.N() {
		t.Errorf("RTE test %d should be smaller than SST2 test %d",
			rte.Test.N(), sst2.Test.N())
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mhc-mlp", seed)
	if err != nil || s.Name() != "mhc-mlp" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope", seed); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestTinyStudyFast(t *testing.T) {
	s := Tiny(1)
	streams := xrand.NewStreams(2)
	split, err := s.Split(streams.Get(xrand.VarDataSplit))
	if err != nil {
		t.Fatal(err)
	}
	perf, err := pipeline.TrainEval(s, s.Defaults(), split.Train, split.Test, streams)
	if err != nil {
		t.Fatal(err)
	}
	if perf < 0.5 {
		t.Errorf("tiny study accuracy %v, want > 0.5", perf)
	}
}

func TestPCCMeasureOnTrainedModel(t *testing.T) {
	s := MHCMLP(seed)
	streams := xrand.NewStreams(3)
	split, err := s.Split(streams.Get(xrand.VarDataSplit))
	if err != nil {
		t.Fatal(err)
	}
	model, err := pipeline.Fit(s, s.Defaults(), split.Train, streams)
	if err != nil {
		t.Fatal(err)
	}
	// The PCC column of Table 8: Pearson correlation of the predicted and
	// true affinities.
	pcc := metrics.Pearson(model.PredictValues(split.Test.X), split.Test.Y)
	if pcc < 0.3 {
		t.Errorf("PCC = %v, want > 0.3 for trained regressor", pcc)
	}
	var _ *data.Dataset = split.Test
}
