package data

import (
	"math"
	"testing"

	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

func TestGaussianMixtureShape(t *testing.T) {
	gm := NewGaussianMixture("gm", 4, 8, 3, 1, 7)
	d := gm.Sample(500, xrand.New(1))
	if d.N() != 500 || d.Dim() != 8 || d.NumClasses != 4 {
		t.Fatalf("bad shape: n=%d dim=%d classes=%d", d.N(), d.Dim(), d.NumClasses)
	}
	counts := make([]int, 4)
	for _, y := range d.Y {
		counts[int(y)]++
	}
	for c, n := range counts {
		if n < 60 {
			t.Errorf("class %d count %d: classes should be roughly balanced", c, n)
		}
	}
}

func TestGaussianMixtureStructStable(t *testing.T) {
	// Same structural seed ⇒ same distribution: large samples have close
	// per-class means even with different sampling seeds.
	gmA := NewGaussianMixture("gm", 2, 4, 5, 0.5, 42)
	gmB := NewGaussianMixture("gm", 2, 4, 5, 0.5, 42)
	dA := gmA.Sample(4000, xrand.New(1))
	dB := gmB.Sample(4000, xrand.New(2))
	meanOfClass := func(d *Dataset, c int) []float64 {
		m := make([]float64, d.Dim())
		n := 0
		for i := 0; i < d.N(); i++ {
			if int(d.Y[i]) == c {
				for j := 0; j < d.Dim(); j++ {
					m[j] += d.X.At(i, j)
				}
				n++
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	for c := 0; c < 2; c++ {
		ma, mb := meanOfClass(dA, c), meanOfClass(dB, c)
		for j := range ma {
			if math.Abs(ma[j]-mb[j]) > 0.15 {
				t.Fatalf("class %d mean differs across samples: %v vs %v", c, ma[j], mb[j])
			}
		}
	}
}

func TestGaussianMixtureSeparable(t *testing.T) {
	// With large separation a nearest-mean classifier should be near-perfect,
	// i.e. the task is learnable.
	gm := NewGaussianMixture("gm", 3, 6, 5, 0.5, 11)
	d := gm.Sample(600, xrand.New(3))
	correct := 0
	for i := 0; i < d.N(); i++ {
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < 3; c++ {
			dist := 0.0
			for j := 0; j < d.Dim(); j++ {
				diff := d.X.At(i, j) - gm.means.At(c, j)
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == int(d.Y[i]) {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.N()); acc < 0.95 {
		t.Errorf("nearest-mean accuracy %v, want > 0.95 for well separated mixture", acc)
	}
}

func TestTextTopicsShapeAndSignal(t *testing.T) {
	tt := NewTextTopics("sst2-like", 200, 30, 16, 1.5, 0.5, 5)
	d := tt.Sample(800, xrand.New(1))
	if d.N() != 800 || d.Dim() != 16 || d.NumClasses != 2 {
		t.Fatalf("bad shape")
	}
	// Embeddings are unit-normalized.
	for i := 0; i < 20; i++ {
		norm := 0.0
		for j := 0; j < d.Dim(); j++ {
			norm += d.X.At(i, j) * d.X.At(i, j)
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("embedding %d norm %v, want 1", i, norm)
		}
	}
	// Class centroids must differ: the task carries signal.
	cent := [2][]float64{make([]float64, d.Dim()), make([]float64, d.Dim())}
	n := [2]int{}
	for i := 0; i < d.N(); i++ {
		c := int(d.Y[i])
		n[c]++
		for j := 0; j < d.Dim(); j++ {
			cent[c][j] += d.X.At(i, j)
		}
	}
	dist := 0.0
	for j := 0; j < d.Dim(); j++ {
		diff := cent[0][j]/float64(n[0]) - cent[1][j]/float64(n[1])
		dist += diff * diff
	}
	if math.Sqrt(dist) < 0.05 {
		t.Errorf("class centroid distance %v too small: no class signal", math.Sqrt(dist))
	}
}

func TestTextTopicsImbalance(t *testing.T) {
	tt := NewTextTopics("rte-like", 100, 20, 8, 1, 0.3, 5)
	d := tt.Sample(2000, xrand.New(2))
	pos := 0
	for _, y := range d.Y {
		if y == 1 {
			pos++
		}
	}
	rate := float64(pos) / float64(d.N())
	if math.Abs(rate-0.3) > 0.04 {
		t.Errorf("positive rate %v, want ≈0.3", rate)
	}
}

func TestSegmentationGroupsAndLabels(t *testing.T) {
	sg := NewSegmentation("voc-like", 8, 5, 12, 3, 0.5, 9)
	d := sg.Sample(8*8*10, xrand.New(1))
	if d.N() != 640 {
		t.Fatalf("n = %d, want 640", d.N())
	}
	if d.Group == nil {
		t.Fatal("segmentation dataset must carry groups")
	}
	// Cells of one image share the group id; groups are contiguous blocks.
	for i := 0; i < d.N(); i++ {
		if d.Group[i] != i/64 {
			t.Fatalf("group[%d] = %d, want %d", i, d.Group[i], i/64)
		}
	}
	// Background plus at least one object class must appear.
	seen := map[int]bool{}
	for _, y := range d.Y {
		seen[int(y)] = true
	}
	if !seen[0] || len(seen) < 2 {
		t.Errorf("label diversity too low: %v", seen)
	}
}

func TestSegmentationRoundsUpToImages(t *testing.T) {
	sg := NewSegmentation("voc-like", 4, 3, 6, 2, 0.3, 9)
	d := sg.Sample(17, xrand.New(1)) // 17 cells → 2 images of 16 cells
	if d.N() != 32 {
		t.Fatalf("n = %d, want 32", d.N())
	}
}

func TestPeptideShapeAndTargets(t *testing.T) {
	p := NewPeptide("mhc-like", 20, 9, 6, 10, 0.3, 13)
	d := p.Sample(400, xrand.New(1))
	if d.Dim() != (6+9)*20 {
		t.Fatalf("dim = %d", d.Dim())
	}
	if d.IsClassification() {
		t.Fatal("peptide task must be regression")
	}
	for i, y := range d.Y {
		if y <= 0 || y >= 1 {
			t.Fatalf("affinity %d = %v outside (0,1)", i, y)
		}
	}
	// Each row is one-hot per position: row sum = pocketLen + pepLen.
	for i := 0; i < 10; i++ {
		sum := 0.0
		for j := 0; j < d.Dim(); j++ {
			sum += d.X.At(i, j)
		}
		if sum != 15 {
			t.Fatalf("row %d one-hot sum = %v, want 15", i, sum)
		}
	}
}

func TestPeptideHasMotifSignal(t *testing.T) {
	// Targets should not be pure noise: variance of y must exceed the noise
	// contribution alone (σ=0.3 through a sigmoid).
	p := NewPeptide("mhc-like", 20, 9, 6, 5, 0.1, 13)
	d := p.Sample(2000, xrand.New(2))
	mean, sq := 0.0, 0.0
	for _, y := range d.Y {
		mean += y
	}
	mean /= float64(d.N())
	for _, y := range d.Y {
		sq += (y - mean) * (y - mean)
	}
	if v := sq / float64(d.N()-1); v < 0.01 {
		t.Errorf("target variance %v too small: motifs carry no signal", v)
	}
}

func TestSubsetAndConcat(t *testing.T) {
	d := makeToyDataset(20, 2, 1)
	sub := d.Subset([]int{0, 5, 5, 19})
	if sub.N() != 4 {
		t.Fatal("subset size wrong")
	}
	if sub.Y[1] != d.Y[5] || sub.Y[2] != d.Y[5] {
		t.Fatal("subset must allow duplicate rows (bootstrap)")
	}
	joined, err := Concat(d, sub)
	if err != nil {
		t.Fatal(err)
	}
	if joined.N() != 24 {
		t.Fatal("concat size wrong")
	}
	if joined.Y[20] != d.Y[0] {
		t.Fatal("concat misaligned")
	}
	other := makeToyDataset(5, 2, 1)
	other.X = tensor.NewMatrix(other.X.Cols, other.X.Rows) // break dimensions
	if _, err := Concat(d, other); err == nil {
		t.Fatal("incompatible concat should error")
	}
}

func TestClassesIndex(t *testing.T) {
	d := makeToyDataset(50, 3, 2)
	byClass, err := d.Classes()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c, members := range byClass {
		for _, i := range members {
			if int(d.Y[i]) != c {
				t.Fatal("class index wrong")
			}
		}
		total += len(members)
	}
	if total != 50 {
		t.Fatal("class index incomplete")
	}
	reg := NewPeptide("r", 4, 3, 2, 2, 0.1, 1).Sample(10, xrand.New(1))
	if _, err := reg.Classes(); err == nil {
		t.Fatal("Classes on regression should error")
	}
}
