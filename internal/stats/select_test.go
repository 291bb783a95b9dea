package stats

import (
	"math"
	"sort"
	"testing"

	"varbench/internal/xrand"
)

// sortedQuantiles is the reference the selection path must match
// bit-for-bit: full sort.Float64s + type-7 interpolation, exactly what
// percentileCI did before the dual quickselect.
func sortedQuantiles(vals []float64, p1, p2 float64) (float64, float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantileSorted(s, p1), quantileSorted(s, p2)
}

// quantileSorted is the type-7 quantile of the sorted slice s.
func quantileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// TestQuantileSelectMatchesSort sweeps random inputs — including heavy
// ties, constant, sorted and reversed slices — across sizes and quantile
// pairs, requiring the selection-based quantiles to equal the sorted
// reference exactly.
func TestQuantileSelectMatchesSort(t *testing.T) {
	r := xrand.New(55)
	levels := []float64{0.5, 0.8, 0.9, 0.95, 0.99}
	gen := map[string]func(n int) []float64{
		"normal": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			return x
		},
		"tied": func(n int) []float64 {
			// Draws from a handful of values: long runs of equal elements
			// stress the partition's equal-to-pivot handling.
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(r.Intn(4))
			}
			return x
		},
		"constant": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = 3.25
			}
			return x
		},
		"ascending": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(i)
			}
			return x
		},
		"descending": func(n int) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = float64(n - i)
			}
			return x
		},
	}
	for name, g := range gen {
		for _, n := range []int{1, 2, 3, 5, 13, 64, 100, 1000} {
			for _, level := range levels {
				p1, p2 := (1-level)/2, 1-(1-level)/2
				vals := g(n)
				wantLo, wantHi := sortedQuantiles(vals, p1, p2)
				gotLo, gotHi := quantiles2Select(vals, p1, p2)
				if !bitsEqual(gotLo, wantLo) || !bitsEqual(gotHi, wantHi) {
					t.Fatalf("%s n=%d level=%v: select (%v, %v) != sort (%v, %v)",
						name, n, level, gotLo, gotHi, wantLo, wantHi)
				}
			}
		}
	}
}

// TestQuantileSelectExtremePs covers the clamp arms (p ≤ 0 → min,
// p ≥ 1 → max) and exact-index quantiles with no interpolation fraction.
func TestQuantileSelectExtremePs(t *testing.T) {
	r := xrand.New(66)
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	for _, ps := range [][2]float64{{0, 1}, {-0.5, 1.5}, {0.25, 0.75}, {0.5, 0.5}} {
		wantLo, wantHi := sortedQuantiles(vals, ps[0], ps[1])
		gotLo, gotHi := quantiles2Select(append([]float64(nil), vals...), ps[0], ps[1])
		if !bitsEqual(gotLo, wantLo) || !bitsEqual(gotHi, wantHi) {
			t.Fatalf("ps=%v: select (%v, %v) != sort (%v, %v)", ps, gotLo, gotHi, wantLo, wantHi)
		}
	}
}

// TestQuantileSelectNaNs mirrors sort.Float64s, which orders NaNs first:
// with m NaNs present the low quantile can be NaN while the high one reads
// from the finite tail — whatever the sorted reference does, selection must
// do too.
func TestQuantileSelectNaNs(t *testing.T) {
	r := xrand.New(77)
	for _, nNaN := range []int{1, 3, 50, 101} {
		vals := make([]float64, 101)
		for i := range vals {
			if i < nNaN {
				vals[i] = math.NaN()
			} else {
				vals[i] = r.NormFloat64()
			}
		}
		// Scatter the NaNs (Fisher-Yates).
		for i := len(vals) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			vals[i], vals[j] = vals[j], vals[i]
		}
		wantLo, wantHi := sortedQuantiles(vals, 0.025, 0.975)
		gotLo, gotHi := quantiles2Select(vals, 0.025, 0.975)
		if !bitsEqual(gotLo, wantLo) || !bitsEqual(gotHi, wantHi) {
			t.Fatalf("nNaN=%d: select (%v, %v) != sort (%v, %v)", nNaN, gotLo, gotHi, wantLo, wantHi)
		}
	}
}

// TestNthElementPartitions checks the partial-order postcondition nth
// element promises, which quantileSelect's repeated calls rely on.
func TestNthElementPartitions(t *testing.T) {
	r := xrand.New(88)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(r.Intn(10))
		}
		k := r.Intn(n)
		ref := append([]float64(nil), s...)
		sort.Float64s(ref)
		if got := nthElement(s, k); got != ref[k] {
			t.Fatalf("trial %d: nthElement(k=%d) = %v, want %v", trial, k, got, ref[k])
		}
		for i := 0; i < k; i++ {
			if s[i] > s[k] {
				t.Fatalf("trial %d: s[%d]=%v > s[k=%d]=%v", trial, i, s[i], k, s[k])
			}
		}
		for i := k + 1; i < n; i++ {
			if s[i] < s[k] {
				t.Fatalf("trial %d: s[%d]=%v < s[k=%d]=%v", trial, i, s[i], k, s[k])
			}
		}
	}
}
