// Package tensor implements the dense float64 linear algebra needed by the
// benchmark substrates: matrices and vectors with the usual BLAS-like
// operations, a Cholesky factorization for the Gaussian-process
// hyperparameter optimizer, and the Reducer policy that names the
// (deliberately) non-deterministic gradient reduction reproducing the
// floating-point "numerical noise" the paper measures on GPU pipelines
// (Figure 1, Appendix A).
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Resize reshapes m to rows×cols in place and returns m. It keeps the
// backing array whenever its capacity holds rows·cols elements, so shrinking,
// and growing back within the capacity, allocate nothing; otherwise it
// replaces the array with a new zeroed one. Element values after a Resize
// are unspecified: callers overwrite them, as every Into kernel does. Slices
// taken from m before the call (Data, Row views) still share the array when
// it was kept, and keep the old one when it was replaced.
func (m *Matrix) Resize(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	if n := rows * cols; n <= cap(m.Data) {
		m.Data = m.Data[:n]
	} else {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// checkProduct panics unless the inner dimensions of the product of a and b
// agree and out is rows×cols.
func checkProduct(op string, out, a, b *Matrix, rows, cols int, innerOK bool) {
	if !innerOK || out.Rows != rows || out.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dims %dx%d, %dx%d into %dx%d",
			op, a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
}

// MatMulInto computes out = a×b without allocating. out must be a.Rows×b.Cols
// and must not alias a or b. Each out[i][j] starts from +0 and adds
// a[i][k]·b[k][j] for k ascending, skipping every k where a[i][k] is zero
// (either sign), so a zero in a hides a NaN or an infinity in b.
//
// On a finite b the skip cannot change a bit: a skipped product is ±0, and
// adding ±0 leaves a sum that starts from +0 unchanged, because such a sum
// never becomes −0 (x + y is −0 only when both are −0). So on a finite b
// the kernel adds every product, with no branch per element; the
// element-by-element loop with the skip serves a b that holds a NaN or an
// infinity.
//
// All three Into kernels compute out in blocks of four rows, one column at
// a time, with the four sums in registers, and round each product to
// float64 before adding it, so that no architecture fuses the two.
func MatMulInto(out, a, b *Matrix) {
	checkProduct("matmul", out, a, b, a.Rows, b.Cols, a.Cols == b.Rows)
	if !finite(b.Data) {
		matMulSkip(out, a, b)
		return
	}
	m, n, p := a.Rows, a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := ad[i*n : (i+1)*n]
		a1 := ad[(i+1)*n : (i+2)*n][:len(a0)]
		a2 := ad[(i+2)*n : (i+3)*n][:len(a0)]
		a3 := ad[(i+3)*n : (i+4)*n][:len(a0)]
		o := od[i*p : (i+4)*p]
		for j := 0; j < p; j++ {
			var s0, s1, s2, s3 float64
			for k, kj := 0, j; k < len(a0); k, kj = k+1, kj+p {
				bv := bd[kj]
				s0 += float64(a0[k] * bv)
				s1 += float64(a1[k] * bv)
				s2 += float64(a2[k] * bv)
				s3 += float64(a3[k] * bv)
			}
			o[j], o[p+j], o[2*p+j], o[3*p+j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		arow := ad[i*n : (i+1)*n]
		for j := 0; j < p; j++ {
			var s float64
			for k, kj := 0, j; k < len(arow); k, kj = k+1, kj+p {
				s += float64(arow[k] * bd[kj])
			}
			od[i*p+j] = s
		}
	}
}

// matMulSkip is MatMulInto element by element, skipping the zeros of a.
func matMulSkip(out, a, b *Matrix) {
	out.Zero()
	n, p := a.Cols, b.Cols
	// ikj loop order: the inner loop streams over contiguous rows of b and
	// out, which is the cache-friendly order for row-major storage.
	for i := 0; i < a.Rows; i++ {
		orow := out.Data[i*p : (i+1)*p]
		for k, av := range a.Data[i*n : (i+1)*n] {
			if av == 0 {
				continue
			}
			brow := b.Data[k*p : (k+1)*p]
			brow = brow[:len(orow)] // drops the bounds check on brow[j]
			for j := range orow {
				orow[j] += float64(av * brow[j])
			}
		}
	}
}

// MatMulTInto computes out = a×bᵀ without allocating or materializing the
// transpose. out must be a.Rows×b.Rows and must not alias a or b. Each
// out[i][j] is the inner product of row i of a and row j of b: it starts
// from +0 and adds a[i][k]·b[j][k] for k ascending, with no zero skipping,
// so a NaN or an infinity anywhere in either row reaches the result.
func MatMulTInto(out, a, b *Matrix) {
	checkProduct("matmulT", out, a, b, a.Rows, b.Rows, a.Cols == b.Cols)
	m, n, p := a.Rows, a.Cols, b.Rows
	ad, bd, od := a.Data, b.Data, out.Data
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := ad[i*n : (i+1)*n]
		a1 := ad[(i+1)*n : (i+2)*n][:len(a0)]
		a2 := ad[(i+2)*n : (i+3)*n][:len(a0)]
		a3 := ad[(i+3)*n : (i+4)*n][:len(a0)]
		o := od[i*p : (i+4)*p]
		for j := 0; j < p; j++ {
			brow := bd[j*n : (j+1)*n][:len(a0)]
			var s0, s1, s2, s3 float64
			for k, bv := range brow {
				s0 += float64(a0[k] * bv)
				s1 += float64(a1[k] * bv)
				s2 += float64(a2[k] * bv)
				s3 += float64(a3[k] * bv)
			}
			o[j], o[p+j], o[2*p+j], o[3*p+j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		arow := ad[i*n : (i+1)*n]
		for j := 0; j < p; j++ {
			brow := bd[j*n : (j+1)*n][:len(arow)]
			var s float64
			for k, bv := range brow {
				s += float64(arow[k] * bv)
			}
			od[i*p+j] = s
		}
	}
}

// TMatMulInto computes out = aᵀ×b without allocating or materializing the
// transpose. out must be a.Cols×b.Cols and must not alias a or b. Each
// out[i][j] starts from +0 and adds a[k][i]·b[k][j] for k ascending,
// skipping every k where a[k][i] is zero (either sign): the same rule as
// MatMulInto, elided the same way on a finite b.
func TMatMulInto(out, a, b *Matrix) {
	checkProduct("TmatMul", out, a, b, a.Cols, b.Cols, a.Rows == b.Rows)
	if !finite(b.Data) {
		tMatMulSkip(out, a, b)
		return
	}
	m, p := a.Cols, b.Cols
	ad, bd, od := a.Data, b.Data, out.Data
	i := 0
	for ; i+4 <= m; i += 4 {
		o := od[i*p : (i+4)*p]
		for j := 0; j < p; j++ {
			var s0, s1, s2, s3 float64
			for ki, kj := i, j; kj < len(bd); ki, kj = ki+m, kj+p {
				ak := (*[4]float64)(ad[ki:])
				bv := bd[kj]
				s0 += float64(ak[0] * bv)
				s1 += float64(ak[1] * bv)
				s2 += float64(ak[2] * bv)
				s3 += float64(ak[3] * bv)
			}
			o[j], o[p+j], o[2*p+j], o[3*p+j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		for j := 0; j < p; j++ {
			var s float64
			for ki, kj := i, j; kj < len(bd); ki, kj = ki+m, kj+p {
				s += float64(ad[ki] * bd[kj])
			}
			od[i*p+j] = s
		}
	}
}

// tMatMulSkip is TMatMulInto element by element, skipping the zeros of a.
func tMatMulSkip(out, a, b *Matrix) {
	out.Zero()
	m, p := a.Cols, b.Cols
	for k := 0; k < a.Rows; k++ {
		brow := b.Data[k*p : (k+1)*p]
		for i, av := range a.Data[k*m : (k+1)*m] {
			if av == 0 {
				continue
			}
			orow := out.Data[i*p : (i+1)*p]
			orow = orow[:len(brow)] // drops the bounds check on orow[j]
			for j, bv := range brow {
				orow[j] += float64(av * bv)
			}
		}
	}
}

// finite reports whether x holds no NaN and no infinity.
func finite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 { // NaN for a NaN or an infinity, +0 for any other v
			return false
		}
	}
	return true
}

// Add computes a += b element-wise.
func (m *Matrix) Add(b *Matrix) {
	checkSameShape(m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// Scale multiplies every element by s.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

func checkSameShape(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Sum returns Σ x with sequential left-to-right accumulation, the
// deterministic reference reduction.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean, NaN for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return Sum(x) / float64(len(x))
}

// Scale multiplies every element of x by s in place.
func Scale(s float64, x []float64) {
	for i := range x {
		x[i] *= s
	}
}
