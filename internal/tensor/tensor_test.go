package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with short slice did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSet(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %g, want 7.5", got)
	}
	if got := m.Data[1*3+2]; got != 7.5 {
		t.Fatalf("backing slice = %g, want 7.5", got)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(4)[%d,%d] = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	sum := New(0, 0).Add(a, b)
	for i, want := range []float64{6, 8, 10, 12} {
		if sum.Data[i] != want {
			t.Fatalf("Add[%d] = %g, want %g", i, sum.Data[i], want)
		}
	}
	diff := New(0, 0).Sub(b, a)
	for i := range diff.Data {
		if diff.Data[i] != 4 {
			t.Fatalf("Sub[%d] = %g, want 4", i, diff.Data[i])
		}
	}
	sc := New(0, 0).Scale(2, a)
	for i, want := range []float64{2, 4, 6, 8} {
		if sc.Data[i] != want {
			t.Fatalf("Scale[%d] = %g, want %g", i, sc.Data[i], want)
		}
	}
}

func TestAddAliasing(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	a.Add(a, a)
	for i, want := range []float64{2, 4, 6, 8} {
		if a.Data[i] != want {
			t.Fatalf("in-place Add[%d] = %g, want %g", i, a.Data[i], want)
		}
	}
}

func TestAXPY(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	m := FromSlice(1, 3, []float64{10, 10, 10})
	m.AXPY(2, a)
	for i, want := range []float64{12, 14, 16} {
		if m.Data[i] != want {
			t.Fatalf("AXPY[%d] = %g, want %g", i, m.Data[i], want)
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := New(0, 0).MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
}

func TestMatMulDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with bad inner dims did not panic")
		}
	}()
	New(0, 0).MatMul(New(2, 3), New(2, 3))
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 5, 6)
	got := New(0, 0).MatMulT(a, b)
	want := New(0, 0).MatMul(a, b.Transpose())
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("MatMulT[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTMatMulMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := randomMatrix(rng, 6, 4)
	b := randomMatrix(rng, 6, 5)
	got := New(0, 0).TMatMul(a, b)
	want := New(0, 0).MatMul(a.Transpose(), b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("TMatMul[%d] = %g, want %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := randomMatrix(rng, 3, 7)
	tt := a.Transpose().Transpose()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatalf("transpose twice changed element %d", i)
		}
	}
}

func TestSymmetrize(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 4, 3})
	m.Symmetrize()
	if m.At(0, 1) != 3 || m.At(1, 0) != 3 {
		t.Fatalf("Symmetrize = %v", m)
	}
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 0, 2, 0, 1, 3})
	got := a.MulVec(nil, []float64{1, 2, 3})
	if got[0] != 7 || got[1] != 11 {
		t.Fatalf("MulVec = %v, want [7 11]", got)
	}
}

func TestFrobeniusNormAndMaxAbs(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, -4})
	if got := m.FrobeniusNorm(); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("FrobeniusNorm = %g, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g, want 4", got)
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := FromSlice(2, 2, []float64{2, 1, 1, 2})
	e, err := EigenSym(m)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e.Values[0], 1, 1e-10) || !almostEqual(e.Values[1], 3, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [1 3]", e.Values)
	}
}

func TestEigenSymReconstruct(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for _, n := range []int{1, 2, 5, 16, 40} {
		b := randomMatrix(rng, n, n)
		a := New(0, 0).TMatMul(b, b) // symmetric PSD
		e, err := EigenSym(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		r := e.Reconstruct()
		scale := 1 + a.MaxAbs()
		for i := range a.Data {
			if !almostEqual(a.Data[i], r.Data[i], 1e-8*scale) {
				t.Fatalf("n=%d: reconstruction off at %d: %g vs %g", n, i, a.Data[i], r.Data[i])
			}
		}
	}
}

func TestEigenSymOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	b := randomMatrix(rng, 12, 12)
	a := New(0, 0).TMatMul(b, b)
	e, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	qtq := New(0, 0).TMatMul(e.Q, e.Q)
	id := Identity(12)
	for i := range id.Data {
		if !almostEqual(qtq.Data[i], id.Data[i], 1e-9) {
			t.Fatalf("QᵀQ not identity at %d: %g", i, qtq.Data[i])
		}
	}
}

func TestEigenSymNonSquare(t *testing.T) {
	if _, err := EigenSym(New(2, 3)); err == nil {
		t.Fatal("EigenSym on non-square matrix succeeded")
	}
}

// trace returns the sum of a square matrix's diagonal elements.
func trace(m *Matrix) float64 {
	var t float64
	for i := 0; i < m.Rows; i++ {
		t += m.Data[i*m.Cols+i]
	}
	return t
}

// quickSym builds a small symmetric matrix from arbitrary float inputs,
// keeping values in a sane range for the property test.
func quickSym(vals [6]float64) *Matrix {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 100)
	}
	m := New(3, 3)
	idx := 0
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			v := clamp(vals[idx])
			idx++
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenSymTraceProperty(t *testing.T) {
	// Property: sum of eigenvalues equals the trace for any symmetric matrix.
	f := func(vals [6]float64) bool {
		m := quickSym(vals)
		e, err := EigenSym(m)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range e.Values {
			sum += v
		}
		tr := trace(m)
		return almostEqual(sum, tr, 1e-8*(1+math.Abs(tr)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 20; trial++ {
		a := randomMatrix(rng, 3, 4)
		b := randomMatrix(rng, 4, 5)
		c := randomMatrix(rng, 5, 2)
		lhs := New(0, 0).MatMul(New(0, 0).MatMul(a, b), c)
		rhs := New(0, 0).MatMul(a, New(0, 0).MatMul(b, c))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-10) {
				t.Fatalf("trial %d: associativity violated at %d", trial, i)
			}
		}
	}
}
