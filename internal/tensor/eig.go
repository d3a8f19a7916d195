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
// rotation angle is defined for such a matrix and no sweep can converge on
// it, so it is rejected before the first sweep.
var ErrNonFinite = errors.New("tensor: non-finite matrix element")

// maxJacobiSweeps bounds the cyclic Jacobi iteration. Convergence is
// quadratic only once the off-diagonal mass is small: activation-covariance
// factors like the proxy models' take 8 to 10 sweeps at n = 55 to 289 to
// reach the 1e-14 tolerance.
const maxJacobiSweeps = 64

// EigenSym computes the eigendecomposition of the symmetric matrix a using
// the cyclic Jacobi rotation method. The input is not modified. It returns
// an error if a is not square, ErrNonFinite if a holds a NaN or ±Inf, and
// an error if the iteration fails to converge.
//
// Layout. The rotations, their order and every floating-point operation are
// those of the textbook two-sided update (columns p and r, then rows p and
// r, then the eigenvector columns p and r); only where the operands live is
// chosen for the cache:
//
//   - the eigenvectors accumulate as Qᵀ, so a rotation updates two
//     contiguous rows, and finishEigen transposes once;
//   - column p of the working matrix stays in the contiguous buffer colp for
//     the whole inner loop over r — gathered once per p, scattered back once.
//     The row pass also owns two of its entries, (p,p) and (r,p); they are
//     stored before it and reloaded after it;
//   - both triangles are updated. After a rotation the (p,r) and (r,p)
//     entries are rounded differently, so the working matrix is symmetric
//     only to rounding and neither triangle can stand in for the other bit
//     for bit.
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
	w := a.Clone()
	qt := Identity(n)
	if n <= 1 {
		return finishEigen(w, qt), nil
	}

	wd := w.Data
	colp := make([]float64, n)
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.FrobeniusNorm()) {
			return finishEigen(w, qt), nil
		}
		for p := 0; p < n-1; p++ {
			rowp := wd[p*n : (p+1)*n]
			qp := qt.Data[p*n : (p+1)*n]
			for k := range colp {
				colp[k] = wd[k*n+p]
			}
			for r := p + 1; r < n; r++ {
				apq := rowp[r]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := rowp[p]
				aqq := wd[r*n+r]
				// Stable computation of the rotation angle.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Columns p and r.
				colr := wd[r:]
				for k, wkp := range colp {
					wkr := colr[k*n]
					colp[k] = c*wkp - s*wkr
					colr[k*n] = s*wkp + c*wkr
				}
				// Rows p and r.
				rowr := wd[r*n : (r+1)*n][:len(rowp)]
				rowp[p], rowr[p] = colp[p], colp[r]
				for k, wpk := range rowp {
					wrk := rowr[k]
					rowp[k] = c*wpk - s*wrk
					rowr[k] = s*wpk + c*wrk
				}
				colp[p], colp[r] = rowp[p], rowr[p]
				// Eigenvector columns p and r: rows of Qᵀ.
				qr := qt.Data[r*n : (r+1)*n][:len(qp)]
				for k, qkp := range qp {
					qkr := qr[k]
					qp[k] = c*qkp - s*qkr
					qr[k] = s*qkp + c*qkr
				}
			}
			for k, v := range colp {
				wd[k*n+p] = v
			}
		}
	}
	if off := offDiagNorm(w); off <= 1e-8*(1+w.FrobeniusNorm()) {
		// Good enough for preconditioning even if the strict tolerance
		// was missed (ill-scaled factors).
		return finishEigen(w, qt), nil
	}
	return nil, fmt.Errorf("tensor: EigenSym failed to converge for %dx%d matrix", n, n)
}

func offDiagNorm(w *Matrix) float64 {
	n := w.Rows
	var s float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := w.Data[i*n+j]
			s += 2 * v * v
		}
	}
	return math.Sqrt(s)
}

// finishEigen extracts the diagonal of w, sorts the eigenpairs ascending
// (the eigenvectors are the rows of qt), transposes qt in place into Q and
// packages the result.
func finishEigen(w, qt *Matrix) *Eigen {
	n := w.Rows
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
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
