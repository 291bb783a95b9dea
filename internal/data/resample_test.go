package data

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func TestBootstrapIndicesRanges(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(300)
		sample, oob := BootstrapIndices(n, k, r)
		if len(sample) != k {
			return false
		}
		inSample := make(map[int]bool)
		for _, i := range sample {
			if i < 0 || i >= n {
				return false
			}
			inSample[i] = true
		}
		for _, i := range oob {
			if i < 0 || i >= n || inSample[i] {
				return false // OOB must be disjoint from the sample
			}
		}
		// sample ∪ oob covers [0,n)
		return len(inSample)+len(oob) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBootstrapOOBFraction(t *testing.T) {
	// With k = n the OOB pool converges to (1-1/n)^n ≈ e^{-1} ≈ 36.8% of n.
	r := xrand.New(3)
	const n = 2000
	total := 0
	const reps = 50
	for i := 0; i < reps; i++ {
		_, oob := BootstrapIndices(n, n, r)
		total += len(oob)
	}
	frac := float64(total) / float64(reps*n)
	if math.Abs(frac-1/math.E) > 0.01 {
		t.Errorf("OOB fraction = %v, want ≈ %v", frac, 1/math.E)
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	r := xrand.New(5)
	pool := []int{2, 4, 6, 8, 10, 12}
	got := SampleWithoutReplacement(pool, 4, r)
	seen := map[int]bool{}
	valid := map[int]bool{2: true, 4: true, 6: true, 8: true, 10: true, 12: true}
	for _, v := range got {
		if seen[v] || !valid[v] {
			t.Fatalf("invalid draw %v", got)
		}
		seen[v] = true
	}
	// Pool argument must not be mutated.
	if pool[0] != 2 || pool[5] != 12 {
		t.Fatal("pool mutated")
	}
}

func makeToyDataset(n, classes int, seed uint64) *Dataset {
	gm := NewGaussianMixture("toy", classes, 4, 2, 1, 99)
	return gm.Sample(n, xrand.New(seed))
}

func TestOOBSplitDisjointRoles(t *testing.T) {
	d := makeToyDataset(300, 3, 1)
	r := xrand.New(2)
	s, err := OOBSplit(d, 300, 30, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	nt, nv, ne := s.Train.N(), s.Valid.N(), s.Test.N()
	if nt != 300 || nv != 30 || ne != 30 {
		t.Fatalf("sizes = %d %d %d", nt, nv, ne)
	}
}

func TestOOBSplitErrorsWhenPoolTooSmall(t *testing.T) {
	d := makeToyDataset(50, 2, 1)
	r := xrand.New(2)
	if _, err := OOBSplit(d, 50, 40, 40, r); err == nil {
		t.Fatal("expected pool-too-small error")
	}
}

func TestOOBSplitIsSeeded(t *testing.T) {
	d := makeToyDataset(200, 2, 1)
	a, err := OOBSplit(d, 200, 20, 20, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := OOBSplit(d, 200, 20, 20, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train.Y {
		if a.Train.Y[i] != b.Train.Y[i] {
			t.Fatal("same seed produced different splits")
		}
	}
	c, err := OOBSplit(d, 200, 20, 20, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Test.Y {
		if a.Test.Y[i] != c.Test.Y[i] {
			same = false
			break
		}
	}
	if same && a.Test.N() > 5 {
		t.Error("different seeds produced identical test sets")
	}
}

func TestStratifiedOOBSplitBalance(t *testing.T) {
	d := makeToyDataset(3000, 5, 1)
	r := xrand.New(11)
	s, err := StratifiedOOBSplit(d, 200, 40, 40, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []*Dataset{s.Train, s.Valid, s.Test} {
		counts := make([]int, 5)
		for _, y := range split.Y {
			counts[int(y)]++
		}
		for c := 1; c < 5; c++ {
			if counts[c] != counts[0] {
				t.Fatalf("stratified split unbalanced: %v", counts)
			}
		}
	}
	if s.Train.N() != 5*200 || s.Valid.N() != 5*40 || s.Test.N() != 5*40 {
		t.Fatalf("stratified sizes wrong: %d %d %d", s.Train.N(), s.Valid.N(), s.Test.N())
	}
}
