// Package tensor provides the dense linear-algebra primitives that the
// K-FAC optimizer and the neural-network substrate are built on: matrices
// with float64 storage, GEMM variants, Kronecker products, symmetric
// eigendecomposition and Cholesky factorization.
//
// The package is deliberately small and allocation-conscious rather than
// general: K-FAC needs square symmetric factor matrices (typically a few
// hundred rows in the proxy models) and the layer math needs rectangular
// GEMM. All hot loops are written over the flat backing slice.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty matrix; use New or FromSlice to create a
// usable one. Methods that return a Matrix allocate the result unless
// documented otherwise.
type Matrix struct {
	Rows, Cols int
	// Data holds the elements in row-major order: element (i, j) lives at
	// Data[i*Cols+j]. Len is always Rows*Cols.
	Data []float64
}

// New returns a zero-filled matrix with the given dimensions.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a Matrix without copying.
// It panics if len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: slice length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Dims returns the (rows, cols) pair.
func (m *Matrix) Dims() (int, int) { return m.Rows, m.Cols }

// IsSquare reports whether m has as many rows as columns.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// String renders small matrices for debugging; large matrices are elided.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += "["
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		s += "]\n"
	}
	return s
}

// Add stores a+b into m (m may alias a or b) and returns m.
// It panics on dimension mismatch.
func (m *Matrix) Add(a, b *Matrix) *Matrix {
	checkSameDims(a, b)
	m.reshape(a.Rows, a.Cols)
	for i := range a.Data {
		m.Data[i] = a.Data[i] + b.Data[i]
	}
	return m
}

// Sub stores a−b into m (m may alias a or b) and returns m.
func (m *Matrix) Sub(a, b *Matrix) *Matrix {
	checkSameDims(a, b)
	m.reshape(a.Rows, a.Cols)
	for i := range a.Data {
		m.Data[i] = a.Data[i] - b.Data[i]
	}
	return m
}

// Scale stores s·a into m (m may alias a) and returns m.
func (m *Matrix) Scale(s float64, a *Matrix) *Matrix {
	m.reshape(a.Rows, a.Cols)
	for i := range a.Data {
		m.Data[i] = s * a.Data[i]
	}
	return m
}

// AXPY adds s·a into m element-wise and returns m.
func (m *Matrix) AXPY(s float64, a *Matrix) *Matrix {
	checkSameDims(m, a)
	for i := range a.Data {
		m.Data[i] += s * a.Data[i]
	}
	return m
}

// AddDiag adds v to every diagonal element of the square matrix m and
// returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	if !m.IsSquare() {
		panic("tensor: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if !m.IsSquare() {
		panic("tensor: Trace on non-square matrix")
	}
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// Transpose returns aᵀ as a new matrix.
func (a *Matrix) Transpose() *Matrix { return new(Matrix).TransposeOf(a) }

// TransposeOf stores aᵀ into m and returns m. m must not alias a.
func (m *Matrix) TransposeOf(a *Matrix) *Matrix {
	m.reshape(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			m.Data[j*m.Cols+i] = v
		}
	}
	return m
}

// gatherBlock is how many consecutive k the GEMM kernels scan for non-zero
// a entries before handing them to accumulate.
const gatherBlock = 16

// MatMul stores a·b into m and returns m. m must not alias a or b.
// It panics if the inner dimensions disagree.
//
// Terms with a zero a entry are skipped, so a NaN or ±Inf in b under a zero
// in a does not reach the product.
func (m *Matrix) MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if !m.reshape(a.Rows, b.Cols) {
		clear(m.Data)
	}
	var (
		ks [gatherBlock]int
		vs [gatherBlock]float64
	)
	for i := 0; i < a.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		cnt := 0
		for k, av := range arow {
			ks[cnt], vs[cnt] = k, av
			if cnt += nonZero(av); cnt == gatherBlock {
				accumulate(mrow, b.Data, b.Cols, ks[:], vs[:])
				cnt = 0
			}
		}
		accumulate(mrow, b.Data, b.Cols, ks[:cnt], vs[:cnt])
	}
	return m
}

// nonZero is 1 when v takes part in a product and 0 when it is skipped (±0).
// The gathers store every candidate and advance by nonZero, a flag set, not
// a branch: rectified activations are zero about every other element, and a
// branch on them mispredicts about every other time. The test is v != 0
// written on the bits, because the float comparison compiles to a branch.
func nonZero(v float64) int {
	if math.Float64bits(v)<<1 != 0 {
		return 1
	}
	return 0
}

// accumulate adds Σ_t vs[t]·row ks[t] of b into mrow, term by term in the
// order given: each element of mrow sees the additions of the
// one-term-at-a-time loop in the same order with the same roundings, but is
// loaded and stored once per four terms. Row k of b is the len(mrow) values
// from b[k*stride].
func accumulate(mrow, b []float64, stride int, ks []int, vs []float64) {
	n := len(mrow)
	for len(ks) >= 4 && len(vs) >= 4 {
		a0, a1, a2, a3 := vs[0], vs[1], vs[2], vs[3]
		b0 := b[ks[0]*stride:][:n]
		b1 := b[ks[1]*stride:][:n]
		b2 := b[ks[2]*stride:][:n]
		b3 := b[ks[3]*stride:][:n]
		for j, v := range mrow {
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			mrow[j] = v
		}
		ks, vs = ks[4:], vs[4:]
	}
	for t, av := range vs {
		brow := b[ks[t]*stride:][:n]
		for j, bv := range brow {
			mrow[j] += av * bv
		}
	}
}

// MatMulT stores a·bᵀ into m and returns m. m must not alias a or b.
//
// Every term takes part, so a NaN or ±Inf in b reaches the product even
// under a zero in a. On finite input MatMul(a, bᵀ) gives the same bits
// while skipping a's zeros: both sums start at +0 and add their terms in k
// order, and a sum that starts at +0 never becomes −0, so a skipped ±0 term
// changes nothing.
func (m *Matrix) MatMulT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	m.reshape(a.Rows, b.Rows)
	kn := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kn : (i+1)*kn]
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		// Four dot products share each load of arow; every sum still adds
		// its terms in k order.
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*kn:][:kn]
			b1 := b.Data[(j+1)*kn:][:kn]
			b2 := b.Data[(j+2)*kn:][:kn]
			b3 := b.Data[(j+3)*kn:][:kn]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			mrow[j], mrow[j+1], mrow[j+2], mrow[j+3] = s0, s1, s2, s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*kn:][:kn]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			mrow[j] = sum
		}
	}
	return m
}

// TMatMul stores aᵀ·b into m and returns m. m must not alias a or b.
// Terms with a zero a entry are skipped, as in MatMul.
func (m *Matrix) TMatMul(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if !m.reshape(a.Cols, b.Cols) {
		clear(m.Data)
	}
	var (
		ks [gatherBlock]int
		vs [gatherBlock]float64
	)
	// Output row i accumulates over column i of a; a block of gatherBlock
	// rows of a and b stays cached while every output row takes its turn.
	for k0 := 0; k0 < a.Rows; k0 += gatherBlock {
		k1 := min(k0+gatherBlock, a.Rows)
		for i := 0; i < a.Cols; i++ {
			cnt := 0
			for k := k0; k < k1; k++ {
				av := a.Data[k*a.Cols+i]
				ks[cnt], vs[cnt] = k, av
				cnt += nonZero(av)
			}
			accumulate(m.Data[i*m.Cols:(i+1)*m.Cols], b.Data, b.Cols, ks[:cnt], vs[:cnt])
		}
	}
	return m
}

// GramRows stores the symmetric product a·aᵀ — the inner products of a's
// rows — into m and returns m. m must not alias a. Only the upper triangle
// is computed; it is then copied below the diagonal. Element (i, j), i ≤ j,
// adds its a[i,k]·a[j,k] terms one at a time in ascending k from +0,
// skipping the terms with a zero a[i,k]: it is the (i, j) element of
// TMatMul(aᵀ, aᵀ) bit for bit, and on finite input that of MatMul(a, aᵀ)
// too (a skipped term is a zero, and no partial sum is −0).
//
// The mirror (j, i) skips where (i, j) does, on zeros of row i, while
// MatMul(a, aᵀ) skips on row j there: a NaN or ±Inf in row j beside a zero
// in row i stays out of both. Squared, it always reaches the diagonal
// element (j, j).
func (m *Matrix) GramRows(a *Matrix) *Matrix {
	n, kn := a.Rows, a.Cols
	if !m.reshape(n, n) {
		clear(m.Data)
	}
	var (
		ks [gatherBlock]int
		vs [gatherBlock]float64
	)
	// Row i gathers its non-zero terms a block at a time and hands them to
	// every row j ≥ i: each sum runs along a row of a, like the samples of
	// a feature-major K-FAC statistic.
	for i := 0; i < n; i++ {
		mrow := m.Data[i*n+i : (i+1)*n]
		rest := a.Data[i*kn:]
		cnt := 0
		for k, av := range rest[:kn] {
			ks[cnt], vs[cnt] = k, av
			if cnt += nonZero(av); cnt == gatherBlock {
				dotRows(mrow, rest, kn, ks[:], vs[:])
				cnt = 0
			}
		}
		dotRows(mrow, rest, kn, ks[:cnt], vs[:cnt])
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
	return m
}

// dotRows adds Σ_t vs[t]·b[j·stride+ks[t]] into mrow[j] for every j, term
// by term in the order given, with the roundings of the one-term loop. Four
// rows of b share each gathered term, and each sum is loaded and stored
// once per call.
func dotRows(mrow, b []float64, stride int, ks []int, vs []float64) {
	j := 0
	for ; j+4 <= len(mrow); j += 4 {
		b0 := b[j*stride:][:stride]
		b1 := b[(j+1)*stride:][:stride]
		b2 := b[(j+2)*stride:][:stride]
		b3 := b[(j+3)*stride:][:stride]
		s0, s1, s2, s3 := mrow[j], mrow[j+1], mrow[j+2], mrow[j+3]
		for t, k := range ks {
			av := vs[t]
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		mrow[j], mrow[j+1], mrow[j+2], mrow[j+3] = s0, s1, s2, s3
	}
	for ; j < len(mrow); j++ {
		brow := b[j*stride:][:stride]
		s := mrow[j]
		for t, k := range ks {
			s += vs[t] * brow[k]
		}
		mrow[j] = s
	}
}

// Kron returns the Kronecker product a ⊗ b as a new matrix.
func Kron(a, b *Matrix) *Matrix {
	k := New(a.Rows*b.Rows, a.Cols*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			av := a.At(i, j)
			if av == 0 {
				continue
			}
			for p := 0; p < b.Rows; p++ {
				dst := k.Data[(i*b.Rows+p)*k.Cols+j*b.Cols : (i*b.Rows+p)*k.Cols+(j+1)*b.Cols]
				src := b.Data[p*b.Cols : (p+1)*b.Cols]
				for q, bv := range src {
					dst[q] = av * bv
				}
			}
		}
	}
	return k
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Symmetrize replaces m with (m+mᵀ)/2, removing floating-point asymmetry
// accumulated by running-average updates, and returns m.
func (m *Matrix) Symmetrize() *Matrix {
	if !m.IsSquare() {
		panic("tensor: Symmetrize on non-square matrix")
	}
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (m.Data[i*n+j] + m.Data[j*n+i]) / 2
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
	return m
}

// MulVec stores a·x into dst and returns dst; dst is allocated when nil.
// It panics if len(x) != a.Cols.
func (a *Matrix) MulVec(dst, x []float64) []float64 {
	if len(x) != a.Cols {
		panic(fmt.Sprintf("tensor: MulVec %dx%d · vec(%d)", a.Rows, a.Cols, len(x)))
	}
	if dst == nil {
		dst = make([]float64, a.Rows)
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		dst[i] = sum
	}
	return dst
}

// reshape sets the dimensions of m, reusing Data when the capacity allows.
// It reports whether it allocated: fresh storage is zero, reused storage
// holds whatever the last user left.
func (m *Matrix) reshape(rows, cols int) (fresh bool) {
	n := rows * cols
	if fresh = cap(m.Data) < n; fresh {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return fresh
}

func checkSameDims(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: dimension mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
