package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Eigen holds the eigendecomposition of a real symmetric matrix:
// A = Q · diag(Values) · Qᵀ with orthonormal columns in Q.
type Eigen struct {
	// Values are the eigenvalues in ascending order.
	Values []float64
	// Q holds the corresponding eigenvectors as columns.
	Q *Matrix
}

// ErrNonFinite reports a NaN or ±Inf element in the input of EigenSym. No
// reflection or rotation is defined for such a matrix and the iteration
// cannot converge on it, so it is rejected before any work.
var ErrNonFinite = errors.New("tensor: non-finite matrix element")

// maxQLIterations bounds the implicit QL iteration per eigenvalue. It
// converges cubically: two iterations are typical, EISPACK's limit is 30.
const maxQLIterations = 30

// EigenSym computes the eigendecomposition of the symmetric matrix a by
// Householder reduction to tridiagonal form followed by the implicit-shift
// QL iteration (EISPACK tred2 and tql2), about 9·n³ flops. Only the upper
// triangle of a, diagonal included, is read; a is not modified. It returns
// an error if a is not square, ErrNonFinite if a holds a NaN or ±Inf, and an
// error if an eigenvalue fails to converge in maxQLIterations.
//
// With ε = 2⁻⁵² and a small constant c the result satisfies
// max|A·Q − Q·Λ| ≤ c·n·ε·‖A‖_F and max|QᵀQ − I| ≤ c·n·ε at any scale of A:
// every convergence decision is relative to the matrix. The same input gives
// the same bits on one architecture; which bits is not a contract.
//
// Layout. The working matrix is the transpose of the one EISPACK describes:
// every inner loop of the reduction, of the accumulation of the reflections
// and of the QL rotations then walks one or two contiguous rows, and the
// eigenvectors come out as the rows of Qᵀ, which finishEigen transposes once.
func EigenSym(a *Matrix) (*Eigen, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("tensor: EigenSym on %dx%d matrix", a.Rows, a.Cols)
	}
	for i, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: %g at (%d,%d) of %dx%d matrix", ErrNonFinite, v, i/a.Cols, i%a.Cols, a.Rows, a.Cols)
		}
	}
	n := a.Rows
	qt := a.Clone()
	// e[:n] holds the subdiagonal, e[n:] a QL sweep's rotations.
	d, e := make([]float64, n), make([]float64, 3*n)
	if n > 0 {
		tridiagonalize(qt.Data, d, e[:n])
		if l := tridiagonalQL(qt.Data, d, e[:n], e[n:]); l >= 0 {
			return nil, fmt.Errorf("tensor: EigenSym failed to converge on eigenvalue %d of %dx%d matrix", l, n, n)
		}
	}
	return finishEigen(d, qt), nil
}

// tridiagonalize reduces the symmetric n×n matrix in w, n = len(d) ≥ 1, to
// the tridiagonal Zᵀ·A·Z: diagonal in d, subdiagonal in e[1:], and Zᵀ, the
// product of the Householder reflections, left in w.
//
// Step i = n−1 … 1 annihilates all but the last of the first i entries of
// column i. Above the diagonal w holds what is left of A; row i, to the left
// of the diagonal, keeps the scaled reflection vector u of step i until the
// second half multiplies the reflections together.
func tridiagonalize(w, d, e []float64) {
	n := len(d)
	for j := range d {
		d[j] = w[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		u, p := d[:i], e[:i]
		var scale, h float64
		for _, v := range u {
			scale += math.Abs(v)
		}
		if scale == 0 {
			// Nothing to annihilate: the reflection is the identity.
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = w[j*n+i-1]
				w[j*n+i] = 0
				w[i*n+j] = 0
			}
			d[i] = 0
			continue
		}
		// Scaling by the 1-norm keeps the sum of squares clear of overflow
		// and underflow. The reflection is I − u·uᵀ/h with h = uᵀu/2.
		for k := range u {
			u[k] /= scale
			h += float64(u[k] * u[k])
		}
		f := u[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= float64(f * g)
		u[i-1] = f - g
		copy(w[i*n:i*n+i], u)
		// p = A·u from the upper triangle: row j gives the part of p[j] to
		// the right of the diagonal and, mirrored, its share of p[j+1:].
		// Row j's share reaches only p[j+1:], so rows j…j+3 add theirs
		// before their dot products start from p[j…j+3]: each chain takes
		// its terms up to column j+3 alone, then the four run interleaved.
		clear(p)
		for j := 0; j < i; j += 4 {
			var g [4]float64
			end := min(j+4, i)
			for r := j; r < end; r++ {
				row := w[r*n : r*n+i]
				axpy(p[r+1:], row[r+1:], u[r])
				g[r-j] = p[r] + float64(row[r]*u[r])
				for k := r + 1; k < end; k++ {
					g[r-j] += float64(row[k] * u[k])
				}
			}
			if end == j+4 {
				dots4(&g, u[end:], w[j*n+end:], w[(j+1)*n+end:], w[(j+2)*n+end:], w[(j+3)*n+end:])
			}
			copy(p[j:end], g[:])
		}
		// A −= u·qᵀ + q·uᵀ with q = p/h − (uᵀp/2h²)·u, left in p.
		f = 0
		for j := range p {
			p[j] /= h
			f += float64(p[j] * u[j])
		}
		hh := f / (h + h)
		for j := range p {
			p[j] -= float64(hh * u[j])
		}
		for j := 0; j < i; j++ {
			rank2(w[j*n+j:j*n+i], p[j:], u[j:], u[j], p[j])
			// u[j] has been used for the last time: column i−1, the next
			// step's input, takes its place, and column i is done with.
			d[j] = w[j*n+i-1]
			w[j*n+i] = 0
		}
		d[i] = h
	}

	// Accumulate Zᵀ: step i+1's reflection applied to the leading (i+1)²
	// block. The tridiagonal's diagonal waits in column n−1, which no
	// block reaches.
	for i := 0; i < n-1; i++ {
		w[i*n+n-1] = w[i*n+i]
		w[i*n+i] = 1
		u := w[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			uh := d[:i+1]
			for k, v := range u {
				uh[k] = v / h
			}
			// Row j takes −(u·row j)·uh. The dot products read rows that
			// no update of this step has touched, so four run at once,
			// each in its own ascending order; past row i the last block
			// repeats row i and drops those chains.
			for j := 0; j <= i; j += 4 {
				var g [4]float64
				dots4(&g, u, w[j*n:], w[min(j+1, i)*n:], w[min(j+2, i)*n:], w[min(j+3, i)*n:])
				for r := j; r <= min(j+3, i); r++ {
					axpy(w[r*n:][:len(u)], uh, -g[r-j])
				}
			}
		}
		clear(u)
	}
	for j := range d {
		d[j] = w[j*n+n-1]
		w[j*n+n-1] = 0
	}
	w[n*n-1] = 1
	e[0] = 0
}

// dots4 adds u·r_t[:len(u)] into g[t] for t = 0…3: four chains of rounded
// products and rounded sums, each in ascending order, run interleaved so
// that one sum's latency hides the others'.
func dots4(g *[4]float64, u, r0, r1, r2, r3 []float64) {
	r0, r1, r2, r3 = r0[:len(u)], r1[:len(u)], r2[:len(u)], r3[:len(u)]
	g0, g1, g2, g3 := g[0], g[1], g[2], g[3]
	for k, v := range u {
		g0 += float64(v * r0[k])
		g1 += float64(v * r1[k])
		g2 += float64(v * r2[k])
		g3 += float64(v * r3[k])
	}
	g[0], g[1], g[2], g[3] = g0, g1, g2, g3
}

// tridiagonalQL diagonalises the symmetric tridiagonal matrix with diagonal
// d and subdiagonal e[1:] by the QL iteration with implicit shifts, applying
// each rotation to two rows of qt (n×n, n = len(d) ≥ 1). A sweep's
// rotations are recorded in cs (2n long) and applied to qt together, by
// rotateSweep. The eigenvalues are left in d, unsorted. It returns −1, or
// the index of the eigenvalue that did not converge in maxQLIterations.
func tridiagonalQL(qt, d, e, cs []float64) int {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0

	// f is the sum of the shifts taken so far; tst1 the running maximum of
	// |d[l]|+|e[l]|. A subdiagonal no larger than ε·tst1 counts as zero.
	var f, tst1 float64
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		small := 0x1p-52 * tst1
		// e[n−1] = 0 ends the search.
		m := l
		for math.Abs(e[m]) > small {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == maxQLIterations {
				return l
			}
			// The shift: the eigenvalue of the leading 2×2 nearer d[l].
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h

			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			t := 0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = float64(c * p)
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = float64(c*d[i]) - float64(s*g)
				d[i+1] = h + float64(s*(float64(c*g)+float64(s*d[i])))
				cs[t], cs[t+1] = c, s
				t += 2
			}
			rotateSweep(qt[l*n:(m+1)*n], n, cs[:t])
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if math.Abs(e[l]) <= small {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	return -1
}

// finishEigen sorts the eigenpairs ascending (the eigenvectors are the rows
// of qt), transposes qt in place into Q and packages the result.
func finishEigen(vals []float64, qt *Matrix) *Eigen {
	n := len(vals)
	// Selection sort of eigenpairs (n is small); swapping rows of qt.
	for i := 0; i < n-1; i++ {
		minIdx := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[minIdx] {
				minIdx = j
			}
		}
		if minIdx != i {
			vals[i], vals[minIdx] = vals[minIdx], vals[i]
			ri, rm := qt.Data[i*n:(i+1)*n], qt.Data[minIdx*n:(minIdx+1)*n]
			for k := range ri {
				ri[k], rm[k] = rm[k], ri[k]
			}
		}
	}
	q := qt.Data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			q[i*n+j], q[j*n+i] = q[j*n+i], q[i*n+j]
		}
	}
	return &Eigen{Values: vals, Q: qt}
}

// Reconstruct rebuilds Q · diag(Values) · Qᵀ, mainly for testing.
func (e *Eigen) Reconstruct() *Matrix {
	n := len(e.Values)
	qd := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qd.Data[i*n+j] = e.Q.Data[i*n+j] * e.Values[j]
		}
	}
	return New(n, n).MatMulT(qd, e.Q)
}
