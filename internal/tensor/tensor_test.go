package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"varbench/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// matMul returns a×b through MatMulInto.
func matMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// matMulT returns a×bᵀ through MatMulTInto.
func matMulT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulTInto(out, a, b)
	return out
}

// tMatMul returns aᵀ×b through TMatMulInto.
func tMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	TMatMulInto(out, a, b)
	return out
}

// fromRows builds a matrix from a slice of equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// transpose returns mᵀ as a new matrix.
func transpose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

func TestMatMulKnown(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := matMul(a, b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("matmul = %v, want %v", c.Data, want.Data)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := xrand.New(1)
	a := NewMatrix(7, 7)
	eye := NewMatrix(7, 7)
	for i := 0; i < 7; i++ {
		eye.Set(i, i, 1)
		for j := 0; j < 7; j++ {
			a.Set(i, j, r.NormFloat64())
		}
	}
	c := matMul(a, eye)
	for i := range c.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatal("A·I != A")
		}
	}
}

func TestMatMulDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched matmul did not panic")
		}
	}()
	matMul(NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		tt := transpose(transpose(m))
		if tt.Rows != m.Rows || tt.Cols != m.Cols {
			return false
		}
		for i := range m.Data {
			if tt.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMatMulTAgreesWithExplicitTranspose(t *testing.T) {
	r := xrand.New(3)
	a := NewMatrix(4, 6)
	b := NewMatrix(5, 6)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	got := matMulT(a, b)
	want := matMul(a, transpose(b))
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulT mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTMatMulAgreesWithExplicitTranspose(t *testing.T) {
	r := xrand.New(4)
	a := NewMatrix(6, 4)
	b := NewMatrix(6, 5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = r.NormFloat64()
	}
	got := tMatMul(a, b)
	want := matMul(transpose(a), b)
	for i := range got.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("TMatMul mismatch at %d", i)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{1, 1}, {1, 1}})
	a.Add(b)
	if a.At(0, 0) != 2 || a.At(1, 1) != 5 {
		t.Fatal("Add wrong")
	}
	a.Scale(2)
	if a.At(1, 0) != 8 {
		t.Fatal("Scale wrong")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(12)
		// Build SPD matrix A = B·Bᵀ + n·I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := matMulT(b, b)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// L·Lᵀ should reproduce A.
		llt := matMulT(l, l)
		for i := range a.Data {
			if !almostEqual(llt.Data[i], a.Data[i], 1e-8*(1+math.Abs(a.Data[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted an indefinite matrix")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := CholeskySolve(l, []float64{8, 7})
	// Verify A·x = b.
	b := []float64{Dot(a.Row(0), x), Dot(a.Row(1), x)}
	if !almostEqual(b[0], 8, 1e-10) || !almostEqual(b[1], 7, 1e-10) {
		t.Fatalf("CholeskySolve: A·x = %v, want [8 7]", b)
	}
}

func TestLogDetFromCholesky(t *testing.T) {
	a := fromRows([][]float64{{2, 0}, {0, 8}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(16)
	if got := LogDetFromCholesky(l); !almostEqual(got, want, 1e-12) {
		t.Fatalf("logdet = %v, want %v", got, want)
	}
}

func TestDotAxpy(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatal("Axpy wrong")
	}
}

func TestMeanAndMaxAbs(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean of empty should be NaN")
	}
}
