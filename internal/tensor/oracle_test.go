package tensor

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
)

// The GEMM kernels as they stood before the cache-friendly rewrite, kept
// verbatim as the oracles of the differential tests: the rewrite may change
// layout, blocking and storage reuse, never a floating-point operation or
// its order, so every product must match these bit for bit.
//
// refEigenSym, the textbook cyclic Jacobi solver, is an accuracy oracle
// only: EigenSym's eigenvalues are held to its within a rounding bound, no
// bit of either is compared. Its convergence test is relative to ‖A‖_F, so
// it serves at any scale.

// jacobiLiveMaxN is the largest size at which the property suite runs the
// Jacobi oracle live. Above it the oracle's eigenvalues come from
// testdata/jacobi_eigenvalues.json: refEigenSym's output for every eigCases
// input at n = 128 and 289 (PCG seed (n, 15)), keyed like the subtests and
// recorded once, because at n = 289 the oracle was most of the package's
// test time and its answer for those fixed inputs never changes.
const jacobiLiveMaxN = 55

var jacobiRecorded = sync.OnceValues(func() (map[string][]float64, error) {
	b, err := os.ReadFile("testdata/jacobi_eigenvalues.json")
	if err != nil {
		return nil, err
	}
	var m map[string][]float64
	return m, json.Unmarshal(b, &m)
})

// oracleEigenvalues returns refEigenSym's eigenvalues of a, the input the
// subtest named key checks: computed up to jacobiLiveMaxN, recorded above.
func oracleEigenvalues(t *testing.T, key string, a *Matrix) []float64 {
	t.Helper()
	if a.Rows <= jacobiLiveMaxN {
		return must(refEigenSym(a)).Values
	}
	m, err := jacobiRecorded()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := m[key]
	if !ok || len(v) != a.Rows {
		t.Fatalf("testdata/jacobi_eigenvalues.json holds %d eigenvalues for %s, want %d", len(v), key, a.Rows)
	}
	return v
}

// maxJacobiSweeps bounds the cyclic Jacobi iteration. Convergence is
// quadratic only once the off-diagonal mass is small: activation-covariance
// factors take 8 to 10 sweeps at n = 55 to 289.
const maxJacobiSweeps = 64

func refEigenSym(a *Matrix) (*Eigen, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("tensor: EigenSym on %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	q := Identity(n)
	if n <= 1 {
		vals := make([]float64, n)
		if n == 1 {
			vals[0] = w.Data[0]
		}
		return &Eigen{Values: vals, Q: q}, nil
	}

	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*w.FrobeniusNorm() {
			return refFinishEigen(w, q), nil
		}
		for p := 0; p < n-1; p++ {
			for qi := p + 1; qi < n; qi++ {
				apq := w.Data[p*n+qi]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.Data[p*n+p]
				aqq := w.Data[qi*n+qi]
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
				refApplyJacobiRotation(w, q, p, qi, c, s)
			}
		}
	}
	return nil, fmt.Errorf("tensor: refEigenSym failed to converge for %dx%d matrix", n, n)
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

func refApplyJacobiRotation(w, q *Matrix, p, r int, c, s float64) {
	n := w.Rows
	for k := 0; k < n; k++ {
		wkp := w.Data[k*n+p]
		wkr := w.Data[k*n+r]
		w.Data[k*n+p] = c*wkp - s*wkr
		w.Data[k*n+r] = s*wkp + c*wkr
	}
	for k := 0; k < n; k++ {
		wpk := w.Data[p*n+k]
		wrk := w.Data[r*n+k]
		w.Data[p*n+k] = c*wpk - s*wrk
		w.Data[r*n+k] = s*wpk + c*wrk
	}
	for k := 0; k < n; k++ {
		qkp := q.Data[k*n+p]
		qkr := q.Data[k*n+r]
		q.Data[k*n+p] = c*qkp - s*qkr
		q.Data[k*n+r] = s*qkp + c*qkr
	}
}

func refFinishEigen(w, q *Matrix) *Eigen {
	n := w.Rows
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.Data[i*n+i]
	}
	// Selection sort of eigenpairs (n is small); swapping columns of q.
	for i := 0; i < n-1; i++ {
		minIdx := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[minIdx] {
				minIdx = j
			}
		}
		if minIdx != i {
			vals[i], vals[minIdx] = vals[minIdx], vals[i]
			for k := 0; k < n; k++ {
				q.Data[k*n+i], q.Data[k*n+minIdx] = q.Data[k*n+minIdx], q.Data[k*n+i]
			}
		}
	}
	return &Eigen{Values: vals, Q: q}
}

func refMatMul(a, b *Matrix) *Matrix {
	m := New(a.Rows, b.Cols)
	// i-k-j loop order keeps both b and m accesses sequential.
	for i := 0; i < a.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				mrow[j] += av * bv
			}
		}
	}
	return m
}

func refMatMulT(a, b *Matrix) *Matrix {
	m := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var sum float64
			for k, av := range arow {
				sum += av * brow[k]
			}
			mrow[j] = sum
		}
	}
	return m
}

func refTMatMul(a, b *Matrix) *Matrix {
	m := New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
			for j, bv := range brow {
				mrow[j] += av * bv
			}
		}
	}
	return m
}
