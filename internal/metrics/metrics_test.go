package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); got != 0.75 {
		t.Errorf("Accuracy = %v", got)
	}
	if !math.IsNaN(Accuracy(nil, nil)) {
		t.Error("empty accuracy should be NaN")
	}
	if !math.IsNaN(Accuracy([]int{1}, []int{1, 2})) {
		t.Error("mismatched lengths should be NaN")
	}
}

func TestMeanIoUPerfect(t *testing.T) {
	p := []int{0, 1, 2, 1, 0}
	if got := MeanIoU(p, p, 3); got != 1 {
		t.Errorf("perfect mIoU = %v", got)
	}
}

func TestMeanIoUKnown(t *testing.T) {
	// pred:   0 0 1 1
	// target: 0 1 1 1
	// class0: inter=1, union=2 → 0.5 ; class1: inter=2, union=3 → 2/3.
	got := MeanIoU([]int{0, 0, 1, 1}, []int{0, 1, 1, 1}, 2)
	want := (0.5 + 2.0/3) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mIoU = %v, want %v", got, want)
	}
}

func TestMeanIoUSkipsAbsentClasses(t *testing.T) {
	// Class 2 never appears: should not drag the mean down.
	got := MeanIoU([]int{0, 1}, []int{0, 1}, 3)
	if got != 1 {
		t.Errorf("mIoU with absent class = %v, want 1", got)
	}
}

func TestMeanIoUBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(100)
		classes := 2 + r.Intn(5)
		p := make([]int, n)
		g := make([]int, n)
		for i := range p {
			p[i] = r.Intn(classes)
			g[i] = r.Intn(classes)
		}
		iou := MeanIoU(p, g, classes)
		return iou >= 0 && iou <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	score := []float64{0.9, 0.8, 0.3, 0.1}
	pos := []bool{true, true, false, false}
	if got := AUC(score, pos); got != 1 {
		t.Errorf("perfect AUC = %v", got)
	}
	// Inverted scores: AUC = 0.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, pos); got != 0 {
		t.Errorf("inverted AUC = %v", got)
	}
	// Ties everywhere: AUC = 0.5.
	if got := AUC([]float64{1, 1, 1, 1}, pos); got != 0.5 {
		t.Errorf("tied AUC = %v", got)
	}
	if !math.IsNaN(AUC(score, []bool{true, true, true, true})) {
		t.Error("single-class AUC should be NaN")
	}
}

func TestAUCMatchesProbabilisticInterpretation(t *testing.T) {
	// AUC = P(score_pos > score_neg) + 0.5·P(tie), checked by brute force.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(40)
		score := make([]float64, n)
		pos := make([]bool, n)
		npos := 0
		for i := range score {
			score[i] = float64(r.Intn(6))
			pos[i] = r.Bernoulli(0.5)
			if pos[i] {
				npos++
			}
		}
		if npos == 0 || npos == n {
			return true
		}
		var wins, pairs float64
		for i := range score {
			if !pos[i] {
				continue
			}
			for j := range score {
				if pos[j] {
					continue
				}
				pairs++
				switch {
				case score[i] > score[j]:
					wins++
				case score[i] == score[j]:
					wins += 0.5
				}
			}
		}
		return math.Abs(AUC(score, pos)-wins/pairs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("Pearson = %v", got)
	}
	if !math.IsNaN(Pearson(x, []float64{1, 1, 1, 1})) {
		t.Error("constant target should give NaN")
	}
}
