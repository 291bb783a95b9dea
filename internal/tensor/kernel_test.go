package tensor

import (
	"math"
	"strings"
	"testing"

	"varbench/internal/xrand"
)

// The reference products define what each Into kernel computes, element by
// element: start from +0 and add the products for k ascending, each rounded
// before it is added. MatMul and TMatMul skip a product whose left factor is
// zero (either sign); MatMulT adds every product.

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				if av := a.At(i, k); av != 0 {
					s += float64(av * b.At(k, j))
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refTMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Rows; k++ {
				if av := a.At(k, i); av != 0 {
					s += float64(av * b.At(k, j))
				}
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func refMatMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += float64(a.At(i, k) * b.At(j, k))
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// specialMatrix fills a rows×cols matrix with normal draws, planting +0, −0,
// NaN, +Inf and −Inf at a combined rate of about 30%.
func specialMatrix(r *xrand.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < 0.12:
			m.Data[i] = 0
		case u < 0.18:
			m.Data[i] = math.Copysign(0, -1)
		case u < 0.22:
			m.Data[i] = math.NaN()
		case u < 0.26:
			m.Data[i] = math.Inf(1)
		case u < 0.30:
			m.Data[i] = math.Inf(-1)
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

// finiteMatrix fills a rows×cols matrix with normal draws, planting +0 and
// −0 at a combined rate of about 20% but no NaN and no infinity: the
// operand on which MatMulInto and TMatMulInto drop the zero skip.
func finiteMatrix(r *xrand.Source, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < 0.1:
			m.Data[i] = 0
		case u < 0.2:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = r.NormFloat64()
		}
	}
	return m
}

// sameBits reports whether x and y have identical bit patterns, counting
// every NaN as one value: which NaN payload an operation returns is left to
// the hardware, but whether it returns a NaN, and the sign of a zero or an
// infinity, is part of the contract.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func TestIntoKernelsMatchReference(t *testing.T) {
	r := xrand.New(17)
	kernels := []struct {
		name  string
		into  func(out, a, b *Matrix)
		alloc func(a, b *Matrix) *Matrix
		ref   func(a, b *Matrix) *Matrix
		// shapes maps (rows, inner, cols) to the operand shapes.
		shapes func(m, n, p int) (ar, ac, br, bc int)
	}{
		{"MatMul", MatMulInto, matMul, refMatMul, func(m, n, p int) (int, int, int, int) { return m, n, n, p }},
		{"TMatMul", TMatMulInto, tMatMul, refTMatMul, func(m, n, p int) (int, int, int, int) { return n, m, n, p }},
		{"MatMulT", MatMulTInto, matMulT, refMatMulT, func(m, n, p int) (int, int, int, int) { return m, n, p, n }},
	}
	// Each dimension runs from 0 to 17, so that every kernel meets whole
	// blocks of four rows and each tail of one to three. Each a holds +0,
	// −0, NaN and infinities. It meets a b that holds them too, where
	// MatMul and TMatMul must skip the zeros of a, and a finite b with
	// planted zeros, where they add every product.
	for _, kn := range kernels {
		for trial := 0; trial < 400; trial++ {
			m, n, p := r.Intn(18), r.Intn(18), r.Intn(18)
			ar, ac, br, bc := kn.shapes(m, n, p)
			a := specialMatrix(r, ar, ac)
			for _, b := range []*Matrix{specialMatrix(r, br, bc), finiteMatrix(r, br, bc)} {
				want := kn.ref(a, b)
				// A reused output holds stale values, NaN included: the
				// kernel must overwrite every element.
				out := NewMatrix(want.Rows, want.Cols)
				for i := range out.Data {
					out.Data[i] = math.NaN()
				}
				kn.into(out, a, b)
				got := kn.alloc(a, b)
				for i := range want.Data {
					if !sameBits(out.Data[i], want.Data[i]) || !sameBits(got.Data[i], want.Data[i]) {
						t.Fatalf("%s trial %d (%dx%d · %dx%d, finite b %v) element %d: Into %v, allocating %v, reference %v",
							kn.name, trial, ar, ac, br, bc, finite(b.Data), i, out.Data[i], got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestResizeReusesBackingArray(t *testing.T) {
	m := NewMatrix(4, 5)
	base := &m.Data[0]
	if got := m.Resize(2, 3); got != m || m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("shrink: got %p %dx%d len %d, want %p 2x3 len 6", got, m.Rows, m.Cols, len(m.Data), m)
	}
	if &m.Data[0] != base {
		t.Fatal("shrinking replaced the backing array")
	}
	m.Resize(5, 4) // 20 elements: back to the full capacity
	if &m.Data[0] != base || len(m.Data) != 20 {
		t.Fatal("growing within capacity replaced the backing array")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		m.Resize(1, 7)
		m.Resize(4, 5)
	}); allocs != 0 {
		t.Errorf("resizing within capacity allocates %v times", allocs)
	}
	m.Resize(3, 7) // 21 elements: beyond the capacity
	if len(m.Data) != 21 || &m.Data[0] == base {
		t.Fatal("growing past capacity must move to a new backing array")
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("a newly allocated backing array must be zeroed")
		}
	}
}

func TestIntoKernelsPanicOnShapeMismatch(t *testing.T) {
	a23, a32, a33 := NewMatrix(2, 3), NewMatrix(3, 2), NewMatrix(3, 3)
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto inner", func() { MatMulInto(NewMatrix(2, 3), a23, a23) }},
		{"MatMulInto out", func() { MatMulInto(NewMatrix(2, 2), a23, a33) }},
		{"TMatMulInto inner", func() { TMatMulInto(NewMatrix(3, 3), a23, a33) }},
		{"TMatMulInto out", func() { TMatMulInto(NewMatrix(2, 2), a33, a32) }},
		{"MatMulTInto inner", func() { MatMulTInto(NewMatrix(2, 3), a23, a32) }},
		{"MatMulTInto out", func() { MatMulTInto(NewMatrix(3, 2), a23, a33) }},
		{"Resize negative", func() { a33.Resize(-1, 2) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: ") {
					t.Errorf("%s: panic %q, want a tensor shape panic", tc.name, msg)
				}
			}()
			tc.call()
		}()
	}
}

// BenchmarkIntoKernelsTiny times the five products one training step of the
// Tiny case study runs (batch 32, 8 inputs, 8 hidden units, 3 classes):
// the two forward layers, the two weight gradients and the back-propagation
// through the output layer. Hidden activations are ReLU outputs with 10%
// dropout, so about 55% of them are zero, as in training; the back-propagated
// deltas are zeroed where the activation was.
func BenchmarkIntoKernelsTiny(b *testing.B) {
	r := xrand.New(29)
	normal := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		return m
	}
	x, w0, w1 := normal(32, 8), normal(8, 8), normal(8, 3)
	hidden, dHidden, dOut := normal(32, 8), normal(32, 8), normal(32, 3)
	for i, v := range hidden.Data {
		if v < 0 || r.Float64() < 0.1 {
			hidden.Data[i], dHidden.Data[i] = 0, 0
		}
	}
	cases := []struct {
		name string
		into func(out, a, b *Matrix)
		out  *Matrix
		a, b *Matrix
	}{
		{"matmul-32x8x8", MatMulInto, NewMatrix(32, 8), x, w0},
		{"matmul-relu-32x8x3", MatMulInto, NewMatrix(32, 3), hidden, w1},
		{"tmatmul-32x8x3", TMatMulInto, NewMatrix(8, 3), hidden, dOut},
		{"tmatmul-32x8x8", TMatMulInto, NewMatrix(8, 8), x, dHidden},
		{"matmult-32x3x8", MatMulTInto, NewMatrix(32, 8), dOut, w1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.into(c.out, c.a, c.b)
			}
		})
	}
}
