package augment

import (
	"math"
	"testing"

	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

func TestJitterMovesEveryFeature(t *testing.T) {
	row := []float64{1, 2, 3, 4}
	orig := append([]float64(nil), row...)
	Jitter{Std: 0.5}.Apply(row, xrand.New(1))
	for i := range row {
		if row[i] == orig[i] {
			t.Fatalf("feature %d unchanged", i)
		}
	}
}

func TestJitterMagnitude(t *testing.T) {
	r := xrand.New(2)
	const n = 20000
	row := make([]float64, n)
	Jitter{Std: 0.3}.Apply(row, r)
	var sq float64
	for _, v := range row {
		sq += v * v
	}
	std := math.Sqrt(sq / n)
	if math.Abs(std-0.3) > 0.01 {
		t.Errorf("jitter std = %v, want 0.3", std)
	}
}

// TestJitterMatchesScalarDraws: Jitter adds Std times one NormFloat64 per
// feature, in feature order, bit for bit, through rows shorter and longer
// than its chunk and a cached Gaussian carried from row to row. In a
// Pipeline{Jitter, Mask} the Mask then draws its Intn from the state the
// Jitter left.
func TestJitterMatchesScalarDraws(t *testing.T) {
	aug := Pipeline{Jitter{Std: 0.1}, Mask{Frac: 0.25}}
	r, ref := xrand.New(9), xrand.New(9)
	for _, n := range []int{1, 3, 8, 15, 16, 17, 40, 7} {
		row := make([]float64, n)
		want := make([]float64, n)
		for i := range row {
			row[i] = float64(i) - 2.5
			want[i] = row[i] + float64(0.1*ref.NormFloat64())
		}
		if w := int(0.25 * float64(n)); w > 0 {
			start := ref.Intn(n - w + 1)
			for i := start; i < start+w; i++ {
				want[i] = 0
			}
		}
		aug.Apply(row, r)
		for i := range want {
			if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row of %d: feature %d = %v, want %v", n, i, row[i], want[i])
			}
		}
	}
	if r.Uint64() != ref.Uint64() {
		t.Fatal("the pipeline consumed the stream differently")
	}
}

func TestMaskZeroesContiguousBlock(t *testing.T) {
	row := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	Mask{Frac: 0.3}.Apply(row, xrand.New(3))
	zeros, first, last := 0, -1, -1
	for i, v := range row {
		if v == 0 {
			zeros++
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if zeros != 3 {
		t.Fatalf("masked %d features, want 3", zeros)
	}
	if last-first+1 != zeros {
		t.Fatal("mask is not contiguous")
	}
}

func TestMaskEdgeCases(t *testing.T) {
	row := []float64{1, 2}
	Mask{Frac: 0}.Apply(row, xrand.New(1))
	if row[0] != 1 || row[1] != 2 {
		t.Fatal("zero-fraction mask changed data")
	}
	// Frac ≥ 1 must never wipe the whole row.
	row = []float64{1, 2, 3}
	Mask{Frac: 5}.Apply(row, xrand.New(1))
	nonzero := 0
	for _, v := range row {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("mask wiped entire row")
	}
}

func TestPipelineOrderAndSeeding(t *testing.T) {
	p := Pipeline{Jitter{Std: 0.1}, Mask{Frac: 0.4}}
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 3}
	p.Apply(a, xrand.New(9))
	p.Apply(b, xrand.New(9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different augmentation")
		}
	}
}

func TestBatchLeavesSourceUntouched(t *testing.T) {
	x := &tensor.Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	orig := append([]float64(nil), x.Data...)
	out := BatchInto(new(tensor.Matrix), x, []int{2, 0}, Jitter{Std: 1}, xrand.New(5))
	if out.Rows != 2 || out.Cols != 2 {
		t.Fatal("bad batch shape")
	}
	for i, v := range x.Data {
		if v != orig[i] {
			t.Fatal("augmentation mutated the dataset")
		}
	}
	// nil augmenter = pure gather.
	gathered := BatchInto(new(tensor.Matrix), x, []int{1}, nil, nil)
	if gathered.At(0, 0) != 3 || gathered.At(0, 1) != 4 {
		t.Fatal("gather wrong")
	}
}
