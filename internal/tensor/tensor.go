// Package tensor provides the dense linear-algebra primitives that the
// K-FAC optimizer and the neural-network substrate are built on: matrices
// with float64 storage, GEMM variants and symmetric eigendecomposition.
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
		m.Data[i] += float64(s * a.Data[i])
	}
	return m
}

// Transpose returns aᵀ as a new matrix.
func (a *Matrix) Transpose() *Matrix { return new(Matrix).TransposeOf(a) }

// TransposeOf stores aᵀ into m and returns m. m must not alias a.
func (m *Matrix) TransposeOf(a *Matrix) *Matrix { return m.transposeCols(a, 0, a.Cols) }

// transposeCols stores the transpose of columns k0 … k0+nk−1 of a, an
// nk × a.Rows matrix, into m and returns m. m must not alias a.
func (m *Matrix) transposeCols(a *Matrix, k0, nk int) *Matrix {
	m.reshape(nk, a.Rows)
	// Four rows of a at a time, read in step, write four adjacent values
	// of each row of m; then two, then one.
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		r0 := a.Data[i*a.Cols+k0:][:nk]
		r1 := a.Data[(i+1)*a.Cols+k0:][:len(r0)]
		r2 := a.Data[(i+2)*a.Cols+k0:][:len(r0)]
		r3 := a.Data[(i+3)*a.Cols+k0:][:len(r0)]
		for j, v := range r0 {
			d := m.Data[j*m.Cols+i:][:4]
			d[0], d[1], d[2], d[3] = v, r1[j], r2[j], r3[j]
		}
	}
	if i+2 <= a.Rows {
		r0 := a.Data[i*a.Cols+k0:][:nk]
		r1 := a.Data[(i+1)*a.Cols+k0:][:len(r0)]
		for j, v := range r0 {
			d := m.Data[j*m.Cols+i:][:2]
			d[0], d[1] = v, r1[j]
		}
		i += 2
	}
	if i < a.Rows {
		for j, v := range a.Data[i*a.Cols+k0:][:nk] {
			m.Data[j*m.Cols+i] = v
		}
	}
	return m
}

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
	var g terms
	for i := 0; i < a.Rows; i++ {
		g.rowProduct(m.Data[i*m.Cols:(i+1)*m.Cols], b.Data, b.Cols, a.Data[i*a.Cols:], 1, a.Cols)
	}
	return m
}

// MatMulT stores a·bᵀ into m and returns m. m must not alias a or b.
// It packs bᵀ into fresh storage; a caller that repeats the product keeps
// that storage with MatMulTPacked.
//
// Every term takes part, so a NaN or ±Inf in b reaches the product even
// under a zero in a. On finite input MatMul(a, bᵀ) gives the same bits
// while skipping a's zeros: both sums start at +0 and add their terms in k
// order, and a sum that starts at +0 never becomes −0, so a skipped ±0 term
// changes nothing.
func (m *Matrix) MatMulT(a, b *Matrix) *Matrix { return m.MatMulTPacked(a, b, new(Matrix)) }

// MatMulTPacked is MatMulT with bᵀ packed, panelRows rows at a time, into
// bt: the caller's storage, reshaped to at most panelRows × b.Rows. bt
// must not alias m, a or b. Each panel is added into blockRows output rows
// at a time (addPanel).
func (m *Matrix) MatMulTPacked(a, b, bt *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if !m.reshape(a.Rows, b.Rows) {
		clear(m.Data)
	}
	if a.Rows == 0 {
		return m // no row of a to take a panel's coefficients from
	}
	for k0 := 0; k0 < a.Cols; k0 += panelRows {
		nk := min(panelRows, a.Cols-k0)
		bt.transposeCols(b, k0, nk)
		addPanel(m.Data, a.Rows, m.Cols, a.Data[k0:], a.Cols, bt.Data, nk)
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
	// Output row i accumulates over column i of a; a block of panelRows
	// rows of a and b stays cached while every output row takes its turn.
	var g terms
	for k0 := 0; k0 < a.Rows; k0 += panelRows {
		nk := min(panelRows, a.Rows-k0)
		for i := 0; i < a.Cols; i++ {
			g.rowProduct(m.Data[i*m.Cols:(i+1)*m.Cols], b.Data[k0*b.Cols:], b.Cols, a.Data[k0*a.Cols+i:], a.Cols, nk)
		}
	}
	return m
}

// GramRows stores the symmetric product a·aᵀ — the inner products of a's
// rows — into m and returns m, packing aᵀ a panel of panelRows rows at a
// time into at: the caller's storage, reshaped to at most panelRows ×
// a.Rows. m must not alias a, and at must alias neither.
//
// Only the upper triangle is computed; it is then copied below the
// diagonal. Element (i, j), i ≤ j, adds its a[i,k]·a[j,k] terms one at a
// time in ascending k from +0, skipping the terms with a zero a[i,k]: it is
// the (i, j) element of TMatMul(aᵀ, aᵀ) bit for bit, and on finite input
// that of MatMul(a, aᵀ) too (a skipped term is a zero, and no partial sum
// is −0).
//
// The mirror (j, i) skips where (i, j) does, on zeros of row i, while
// MatMul(a, aᵀ) skips on row j there: a NaN or ±Inf in row j beside a zero
// in row i stays out of both. Squared, it always reaches the diagonal
// element (j, j).
func (m *Matrix) GramRows(a, at *Matrix) *Matrix {
	n, kn := a.Rows, a.Cols
	if !m.reshape(n, n) {
		clear(m.Data)
	}
	// Row i of the upper triangle adds a[i,k]·(row k of aᵀ from column i):
	// each sum runs along a row of a, like the samples of a feature-major
	// K-FAC statistic, a panel of aᵀ at a time.
	var g terms
	for k0 := 0; k0 < kn; k0 += panelRows {
		nk := min(panelRows, kn-k0)
		at.transposeCols(a, k0, nk)
		for i := 0; i < n; i++ {
			g.rowProduct(m.Data[i*n+i:(i+1)*n], at.Data[i:], n, a.Data[i*kn+k0:], 1, nk)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
	return m
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
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
			sum += float64(v * x[j])
		}
		dst[i] = sum
	}
	return dst
}

// Reshape sets the dimensions of m to rows×cols and returns m, reusing Data
// when its capacity allows. The contents are unspecified, for a caller that
// writes every element.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	m.reshape(rows, cols)
	return m
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
