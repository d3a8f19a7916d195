package tensor

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L with a = L·Lᵀ for a
// symmetric positive-definite matrix. It returns an error if a is not
// square or not positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("tensor: Cholesky on %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.Data[i*n+j]
			for k := 0; k < j; k++ {
				sum -= float64(l.Data[i*n+k] * l.Data[j*n+k])
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tensor: Cholesky: matrix not positive definite (pivot %d = %g)", i, sum)
				}
				l.Data[i*n+i] = math.Sqrt(sum)
			} else {
				l.Data[i*n+j] = sum / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a·x = b given the Cholesky factor l of a, storing the
// solution in a new slice. It panics if dimensions disagree.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("tensor: SolveCholesky vec(%d) with %dx%d factor", len(b), n, n))
	}
	// Forward substitution L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= float64(l.Data[i*n+k] * y[k])
		}
		y[i] = sum / l.Data[i*n+i]
	}
	// Back substitution Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= float64(l.Data[k*n+i] * x[k])
		}
		x[i] = sum / l.Data[i*n+i]
	}
	return x
}

// InverseSPD inverts a symmetric positive-definite matrix via its Cholesky
// factorization. This mirrors the "implicit inversion" alternative that
// KAISA employs for the Fisher factors.
func InverseSPD(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := SolveCholesky(l, e)
		for i := 0; i < n; i++ {
			inv.Data[i*n+j] = col[i]
		}
	}
	return inv, nil
}
