package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
)

// skipUnlessAMD64 gates the bit-for-bit comparisons the way the schedule
// goldens are gated: other architectures may fuse the oracle's and the
// kernel's multiply-adds differently.
func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit equality with the reference kernels is checked on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
}

// eachKernel runs f as one subtest per kernel path this host has: the
// portable body, then the AVX kernel where the CPU runs it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = false
	t.Run("portable", f)
	if !avxSupported {
		t.Logf("no AVX kernel on this host (%s)", runtime.GOARCH)
		return
	}
	useAVX = true
	t.Run("avx", f)
}

// sameBits requires got and want to agree bit for bit, NaNs excepted: which
// operand's payload and sign an x86 add of two NaNs keeps depends on the
// operand order the compiler picked, so a NaN only has to meet a NaN.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// reluCovariance is the shape of a K-FAC activation factor: aᵀa/rows over
// rectified Gaussian rows with a trailing homogeneous one.
func reluCovariance(rng *rand.Rand, n int) *Matrix {
	rows := 2*n + 3
	a := New(rows, n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n-1; j++ {
			a.Data[i*n+j] = math.Max(0, rng.NormFloat64())
		}
		a.Data[i*n+n-1] = 1
	}
	c := refTMatMul(a, a)
	return c.Scale(1/float64(rows), c).Symmetrize()
}

// eigCases returns the named n×n inputs of the EigenSym property suite.
func eigCases(rng *rand.Rand, n int) map[string]*Matrix {
	if n == 0 {
		return map[string]*Matrix{"empty": New(0, 0)}
	}
	cov := reluCovariance(rng, n)
	diag := New(n, n)
	for i := 0; i < n; i++ {
		diag.Data[i*n+i] = rng.NormFloat64()
	}
	// Two eigenvalues, each repeated: Q·diag(1,1,…,3,3,…)·Qᵀ with Q the
	// Householder reflection I − 2vvᵀ/vᵀv.
	v := randomMatrix(rng, n, 1)
	q := Identity(n).AXPY(-2/refTMatMul(v, v).Data[0], refMatMulT(v, v))
	qd := q.Clone()
	for i := 0; i < n; i++ {
		for j := n / 2; j < n; j++ {
			qd.Data[i*n+j] *= 3
		}
	}
	repeated := refMatMulT(qd, q).Symmetrize()
	// Block diagonal: the off-diagonal blocks are exact zeros, so the
	// problem splits. A denormal entry rides along.
	blocks := cov.Clone()
	h := n / 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i < h) != (j < h) {
				blocks.Data[i*n+j] = 0
			}
		}
	}
	if n >= 2 {
		blocks.Data[0*n+n-1], blocks.Data[(n-1)*n+0] = 1e-310, 1e-310
	}
	// The two classic stress inputs of the QL iteration. Wilkinson's
	// tridiagonal W⁺ (W21⁺ at n = 21) has pairs of eigenvalues that agree
	// to working precision; the graded matrix spans twelve decades down
	// its diagonal, largest first, under noise of 1e-6.
	wilkinson, graded := New(n, n), randomMatrix(rng, n, n).Symmetrize()
	graded.Scale(1e-6, graded)
	for i := 0; i < n; i++ {
		wilkinson.Data[i*n+i] = math.Abs(float64(n-1)/2 - float64(i))
		if i > 0 {
			wilkinson.Data[i*n+i-1], wilkinson.Data[(i-1)*n+i] = 1, 1
		}
		graded.Data[i*n+i] += math.Pow(10, -12*float64(i)/math.Max(1, float64(n-1)))
	}
	return map[string]*Matrix{
		"relu-covariance": cov,
		"diagonal":        diag,
		"identity":        Identity(n),
		"repeated":        repeated,
		"zero-blocks":     blocks,
		"scaled-1e+150":   New(n, n).Scale(1e150, cov),
		"scaled-1e-150":   New(n, n).Scale(1e-150, cov),
		"wilkinson":       wilkinson,
		"graded":          graded,
	}
}

func must(e *Eigen, err error) *Eigen {
	if err != nil {
		panic(err)
	}
	return e
}

// frobenius is FrobeniusNorm without the overflow at 1e150 and the
// underflow at 1e-150: the elements are scaled by the largest first.
func frobenius(a *Matrix) float64 {
	mx := a.MaxAbs()
	if mx == 0 {
		return 0
	}
	var s float64
	for _, v := range a.Data {
		s += (v / mx) * (v / mx)
	}
	return mx * math.Sqrt(s)
}

// eigSlack is the constant c of the suite's c·n·ε bounds.
const eigSlack = 4

// checkEigen holds e to the contract of EigenSym on the symmetric input a:
// ascending eigenvalues, max|A·Q − Q·Λ| ≤ c·n·ε·‖A‖_F, max|QᵀQ − I| ≤ c·n·ε
// and |Σλ − tr A| ≤ c·n·ε·‖A‖_F. Eigenvectors are never compared with
// another solver's: signs are free, and so is the basis of a repeated
// eigenvalue's eigenspace. It returns the bound c·n·ε·‖A‖_F.
func checkEigen(t *testing.T, a *Matrix, e *Eigen) (tol float64) {
	t.Helper()
	n := a.Rows
	if len(e.Values) != n || e.Q.Rows != n || e.Q.Cols != n {
		t.Fatalf("%d eigenvalues and a %dx%d Q for a %dx%d input", len(e.Values), e.Q.Rows, e.Q.Cols, n, n)
	}
	unit := eigSlack * float64(n) * 0x1p-52
	tol = unit * frobenius(a)
	var sum float64
	for i, v := range e.Values {
		if i > 0 && v < e.Values[i-1] {
			t.Fatalf("eigenvalues %d and %d descend: %g, %g", i-1, i, e.Values[i-1], v)
		}
		sum += v
	}
	if d := math.Abs(sum - a.Trace()); !(d <= tol) {
		t.Errorf("|Σλ − tr A| = %g, want at most %g", d, tol)
	}
	aq := refMatMul(a, e.Q)
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			worst = math.Max(worst, math.Abs(aq.Data[i*n+j]-e.Q.Data[i*n+j]*e.Values[j]))
		}
	}
	if !(worst <= tol) {
		t.Errorf("max|A·Q − Q·Λ| = %g, want at most %g", worst, tol)
	}
	if d := New(0, 0).Sub(refTMatMul(e.Q, e.Q), Identity(n)).MaxAbs(); !(d <= unit) {
		t.Errorf("max|QᵀQ − I| = %g, want at most %g", d, unit)
	}
	return tol
}

// TestEigenSymMatchesReference holds EigenSym to its contract on every case
// and size, and its eigenvalues to the textbook Jacobi solver's within
// c·n·ε·‖A‖_F. The oracle runs live up to n = 55; at n = 128 and 289 its
// recorded eigenvalues stand in for it (oracleEigenvalues).
func TestEigenSymMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 10, 21, 33, 55, 128, 289} {
		rng := rand.New(rand.NewPCG(uint64(n), 15))
		for name, a := range eigCases(rng, n) {
			key := fmt.Sprintf("n=%d/%s", n, name)
			t.Run(key, func(t *testing.T) {
				in := a.Clone()
				got, err := EigenSym(a)
				sameBits(t, "input after the call", a.Data, in.Data)
				if err != nil {
					t.Fatal(err)
				}
				tol := checkEigen(t, a, got)
				want := oracleEigenvalues(t, key, a)
				for i, v := range got.Values {
					if d := math.Abs(v - want[i]); !(d <= tol) {
						t.Fatalf("eigenvalue %d = %g, the oracle's %g: apart by %g, want at most %g", i, v, want[i], d, tol)
					}
				}
			})
		}
	}
}

// An input the caller did not symmetrize: only the upper triangle, diagonal
// included, is read, so whatever lies below the diagonal the result is that
// of the symmetric matrix with that upper triangle, bit for bit.
func TestEigenSymMatchesReferenceAsymmetricInput(t *testing.T) {
	const n = 33
	rng := rand.New(rand.NewPCG(7, 15))
	sym := reluCovariance(rng, n)
	a := sym.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a.Data[i*n+j] = rng.NormFloat64()
		}
	}
	in := a.Clone()
	got, want := must(EigenSym(a)), must(EigenSym(sym))
	sameBits(t, "input after the call", a.Data, in.Data)
	sameBits(t, "eigenvalues", got.Values, want.Values)
	sameBits(t, "Q", got.Q.Data, want.Q.Data)
	checkEigen(t, sym, got)
}

// Scaling the input scales the eigenvalues and nothing else: convergence is
// judged against the matrix, not against 1. Gradient-covariance factors have
// norms orders below one.
func TestEigenSymScaleEquivariant(t *testing.T) {
	for _, n := range []int{2, 10, 55} {
		rng := rand.New(rand.NewPCG(uint64(n), 17))
		for name, a := range eigCases(rng, n) {
			if strings.HasPrefix(name, "scaled") {
				continue
			}
			base := must(EigenSym(a)).Values
			radius := math.Max(math.Abs(base[0]), math.Abs(base[n-1]))
			for _, s := range []float64{1e-150, 1e-8, 1, 1e150} {
				t.Run(fmt.Sprintf("n=%d/%s/%g", n, name, s), func(t *testing.T) {
					sa := New(n, n).Scale(s, a)
					e := must(EigenSym(sa))
					checkEigen(t, sa, e)
					for i, v := range e.Values {
						if d := math.Abs(v - s*base[i]); !(d <= 1e-12*s*radius) {
							t.Fatalf("eigenvalue %d of %g·A = %g, want %g·%g = %g to 1e-12 of the largest", i, s, v, s, base[i], s*base[i])
						}
					}
				})
			}
		}
	}
}

func TestEigenSymNonFinite(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 15))
	for _, n := range []int{1, 2, 33} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range [][2]int{{0, 0}, {n - 1, n - 1}, {0, n - 1}, {n - 1, 0}} {
				a := reluCovariance(rng, n)
				a.Data[at[0]*n+at[1]] = bad
				e, err := EigenSym(a)
				if !errors.Is(err, ErrNonFinite) || e != nil {
					t.Fatalf("n=%d %g at %v: got (%v, %v), want ErrNonFinite", n, bad, at, e, err)
				}
			}
		}
	}
	// The largest finite values are not rejected by the scan.
	a := FromSlice(2, 2, []float64{math.MaxFloat64, 0, 0, -math.MaxFloat64})
	if _, err := EigenSym(a); err != nil {
		t.Fatalf("finite extreme input: %v", err)
	}
}

// gemmShapes are (a.Rows, a.Cols, b.Cols) triples: the four products of the
// ProxyResNet step, then sizes that leave every remainder of the blocking
// and rows wider than one gather block.
var gemmShapes = [][3]int{
	{2048, 10, 6}, {1152, 55, 8}, {32, 289, 32}, {32, 33, 10},
	{1, 1, 1}, {3, 5, 7}, {7, 3, 2}, {5, 17, 9}, {9, 70, 3}, {6, 131, 5}, {2, 1030, 3},
}

var zeroDensities = []float64{0, 0.5, 0.95, 1}

// sparseMatrix draws a rows×cols Gaussian matrix in which each element is
// zero with probability density; some of the zeros are negative.
func sparseMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	m := randomMatrix(rng, rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = 0
			if rng.IntN(4) == 0 {
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return m
}

// poison plants −0, NaN and ±Inf in b. Under a zero a entry the skip keeps
// them out of the product; under a non-zero one they must propagate exactly
// as in the reference.
func poison(rng *rand.Rand, b *Matrix) {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for range 1 + len(b.Data)/16 {
		b.Data[rng.IntN(len(b.Data))] = specials[rng.IntN(len(specials))]
	}
}

func TestMatMulMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	eachKernel(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			for _, density := range zeroDensities {
				rng := rand.New(rand.NewPCG(uint64(s[0]*s[1]), uint64(density*100)))
				a := sparseMatrix(rng, s[0], s[1], density)
				b := randomMatrix(rng, s[1], s[2])
				if density > 0 {
					poison(rng, b)
				}
				name := fmt.Sprintf("%dx%d·%dx%d/zeros=%g", s[0], s[1], s[1], s[2], density)
				sameBits(t, "MatMul "+name, New(0, 0).MatMul(a, b).Data, refMatMul(a, b).Data)
				// Reused storage holding stale values must be cleared first.
				m := randomMatrix(rng, s[0]+1, s[2]+1)
				sameBits(t, "MatMul into reused storage "+name, m.MatMul(a, b).Data, refMatMul(a, b).Data)
			}
		}
	})
}

func TestTMatMulMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	eachKernel(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			for _, density := range zeroDensities {
				rng := rand.New(rand.NewPCG(uint64(s[0]*s[1]), uint64(density*100)))
				a := sparseMatrix(rng, s[0], s[1], density)
				b := randomMatrix(rng, s[0], s[2])
				if density > 0 {
					poison(rng, b)
				}
				name := fmt.Sprintf("(%dx%d)ᵀ·%dx%d/zeros=%g", s[0], s[1], s[0], s[2], density)
				sameBits(t, "TMatMul "+name, New(0, 0).TMatMul(a, b).Data, refTMatMul(a, b).Data)
				m := randomMatrix(rng, s[1]+1, s[2]+1)
				sameBits(t, "TMatMul into reused storage "+name, m.TMatMul(a, b).Data, refTMatMul(a, b).Data)
				// aᵀa, the Kronecker-factor product; poisoned a under its own zeros.
				if density > 0 {
					poison(rng, a)
				}
				sameBits(t, "TMatMul aᵀa "+name, New(0, 0).TMatMul(a, a).Data, refTMatMul(a, a).Data)
			}
		}
	})
}

// GramRows(aᵀ) is TMatMul(a, a) bit for bit: zeros of either sign and
// denormals (whose products underflow to a zero of either sign) included,
// fresh storage or reused.
func TestGramRowsMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	eachKernel(t, func(t *testing.T) {
		denormals := []float64{5e-324, -5e-324, 1e-310, -2.5e-308}
		for _, s := range gemmShapes {
			for _, density := range zeroDensities {
				rng := rand.New(rand.NewPCG(uint64(s[0]*s[1]), uint64(density*100)))
				a := sparseMatrix(rng, s[0], s[1], density)
				for range 1 + len(a.Data)/16 {
					a.Data[rng.IntN(len(a.Data))] = denormals[rng.IntN(len(denormals))]
				}
				at := a.Transpose()
				want := refTMatMul(a, a).Data
				name := fmt.Sprintf("%dx%d·itselfᵀ/zeros=%g", s[1], s[0], density)
				sameBits(t, "GramRows "+name, New(0, 0).GramRows(at, New(0, 0)).Data, want)
				sameBits(t, "MatMul(a, aᵀ) "+name, New(0, 0).MatMul(at, a).Data, want)
				m := randomMatrix(rng, s[1]+1, s[1]+1)
				sameBits(t, "GramRows into reused storage "+name, m.GramRows(at, randomMatrix(rng, 3, 5)).Data, want)
			}
		}
	})
}

// The one place GramRows and MatMul(a, aᵀ) part: a NaN or ±Inf in row j of
// a column whose row i holds a zero. MatMul skips on the row index of the
// output, so it keeps the value out of (i, j) and lets it into (j, i);
// GramRows mirrors (i, j), so it stays out of both. It cannot hide: its
// square is a term of (j, j), which no zero guards.
func TestGramRowsNonFiniteReachesTheDiagonal(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		const n, cols, i, j = 4, 5, 1, 2
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, zero := range []float64{0, math.Copysign(0, -1)} {
				a := randomMatrix(rand.New(rand.NewPCG(9, 15)), n, cols)
				a.Data[i*cols+3], a.Data[j*cols+3] = zero, bad
				g, mm := New(0, 0).GramRows(a, New(0, 0)), New(0, 0).MatMul(a, a.Transpose())
				if v := mm.Data[j*n+i]; !math.IsNaN(v) {
					t.Fatalf("%g beside %g: MatMul(a, aᵀ)[%d,%d] = %g, want NaN (the premise of this test)", bad, zero, j, i, v)
				}
				for _, at := range [][2]int{{i, j}, {j, i}} {
					got, want := g.Data[at[0]*n+at[1]], mm.Data[i*n+j]
					if math.Float64bits(got) != math.Float64bits(want) || math.IsNaN(got) || math.IsInf(got, 0) {
						t.Fatalf("%g beside %g: GramRows[%d,%d] = %g, want the finite %g of MatMul's [%d,%d]", bad, zero, at[0], at[1], got, want, i, j)
					}
				}
				if d := g.Data[j*n+j]; !math.IsNaN(d) && !math.IsInf(d, 1) {
					t.Fatalf("%g beside %g: GramRows[%d,%d] = %g, want NaN or +Inf", bad, zero, j, j, d)
				}
			}
		}
	})
}

func TestMatMulTMatchesReference(t *testing.T) {
	skipUnlessAMD64(t)
	eachKernel(t, func(t *testing.T) {
		for _, s := range gemmShapes {
			for _, density := range zeroDensities {
				rng := rand.New(rand.NewPCG(uint64(s[0]*s[1]), uint64(density*100)))
				a := sparseMatrix(rng, s[0], s[1], density)
				b := randomMatrix(rng, s[2], s[1])
				poison(rng, b)
				name := fmt.Sprintf("%dx%d·(%dx%d)ᵀ/zeros=%g", s[0], s[1], s[2], s[1], density)
				sameBits(t, "MatMulT "+name, New(0, 0).MatMulT(a, b).Data, refMatMulT(a, b).Data)
				m := randomMatrix(rng, s[0]+1, s[2]+1)
				sameBits(t, "MatMulT into reused storage "+name, m.MatMulTPacked(a, b, randomMatrix(rng, 3, 5)).Data, refMatMulT(a, b).Data)
			}
		}
	})
}

// The layers' input gradients are gpa·Wᵀ with gpa half zeros behind a ReLU.
// MatMul against the explicit transpose skips those zeros and must give
// MatMulT's bits on finite input: the ProxyResNet backward shapes (k = 6, 8,
// 32, 10), then random ones, into fresh and reused storage. The one intended
// difference comes first: a NaN or ±Inf in b under a zero in a reaches
// MatMulT's product and not MatMul's.
func TestMatMulOfTransposeMatchesMatMulT(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, zero := range []float64{0, math.Copysign(0, -1)} {
				rng := rand.New(rand.NewPCG(5, 8))
				a, b := randomMatrix(rng, 3, 4), randomMatrix(rng, 2, 4)
				a.Data[1*4+2], b.Data[0*4+2] = zero, bad
				if v := New(0, 0).MatMulT(a, b).Data[1*2+0]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					t.Fatalf("%g under %g: MatMulT[1,0] = %g, want it non-finite", bad, zero, v)
				}
				if v := New(0, 0).MatMul(a, b.Transpose()).Data[1*2+0]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%g under %g: MatMul(a, bᵀ)[1,0] = %g, want it finite", bad, zero, v)
				}
			}
		}
		skipUnlessAMD64(t)
		shapes := [][3]int{{2048, 6, 10}, {1152, 8, 55}, {32, 32, 288}, {32, 10, 32}, {5, 6, 3}, {9, 8, 17}, {4, 32, 7}}
		rng := rand.New(rand.NewPCG(6, 8))
		for range 24 {
			shapes = append(shapes, [3]int{1 + rng.IntN(40), 1 + rng.IntN(40), 1 + rng.IntN(40)})
		}
		for _, s := range shapes {
			for _, density := range []float64{0, 0.5, 1} {
				a := sparseMatrix(rng, s[0], s[1], density)
				b := randomMatrix(rng, s[2], s[1])
				want := New(0, 0).MatMulT(a, b).Data
				name := fmt.Sprintf("%dx%d·(%dx%d)ᵀ/zeros=%g", s[0], s[1], s[2], s[1], density)
				sameBits(t, "MatMul(a, bᵀ) "+name, New(0, 0).MatMul(a, b.Transpose()).Data, want)
				m, bt := randomMatrix(rng, s[0]+1, s[2]+1), randomMatrix(rng, s[1]+2, s[2])
				sameBits(t, "MatMul(a, bᵀ) into reused storage "+name, m.MatMul(a, bt.TransposeOf(b)).Data, want)
			}
		}
	})
}

func TestEigenSymAllocatesConstantObjects(t *testing.T) {
	for _, n := range []int{10, 55} {
		a := reluCovariance(rand.New(rand.NewPCG(3, 15)), n)
		// Qᵀ (header and data), eigenvalues, subdiagonal, the Eigen: five
		// whatever n is, inside the eight the callers were promised.
		if allocs := testing.AllocsPerRun(3, func() { must(EigenSym(a)) }); allocs > 8 {
			t.Errorf("n=%d: EigenSym allocated %.0f objects, want at most 8", n, allocs)
		}
	}
}

var sinkEigen *Eigen

// BenchmarkEigenSym times EigenSym and, under oracle/, the Jacobi solver of
// the tests on the same inputs, so one run shows both on the host it lands
// on. ns/n³ is the cost per unit of the 9·n³ flop model the simulator
// charges for the stage.
func BenchmarkEigenSym(b *testing.B) {
	for _, solver := range []struct {
		prefix string
		solve  func(*Matrix) (*Eigen, error)
	}{{"", EigenSym}, {"oracle/", refEigenSym}} {
		for _, n := range []int{55, 128, 289} {
			a := reluCovariance(rand.New(rand.NewPCG(uint64(n), 15)), n)
			b.Run(fmt.Sprintf("%sn=%d", solver.prefix, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e, err := solver.solve(a)
					if err != nil {
						b.Fatal(err)
					}
					sinkEigen = e
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*n*n), "ns/n³")
			})
		}
	}
}

// benchGEMM runs mul on each of the workload's shapes; dims maps a shape
// triple to the dimensions of the two operands. The first operand is half
// zeros, as the rectified activations it stands for are.
func benchGEMM(b *testing.B, mul func(m, x, y *Matrix) *Matrix, dims func(s [3]int) (xr, xc, yr, yc int)) {
	for _, s := range gemmShapes[:4] {
		xr, xc, yr, yc := dims(s)
		rng := rand.New(rand.NewPCG(uint64(s[0]), 15))
		x, y := sparseMatrix(rng, xr, xc, 0.5), randomMatrix(rng, yr, yc)
		m := New(0, 0)
		b.Run(fmt.Sprintf("%dx%d,%dx%d", xr, xc, yr, yc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mul(m, x, y)
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchGEMM(b, (*Matrix).MatMul, func(s [3]int) (int, int, int, int) { return s[0], s[1], s[1], s[2] })
}

func BenchmarkTMatMul(b *testing.B) {
	benchGEMM(b, (*Matrix).TMatMul, func(s [3]int) (int, int, int, int) { return s[0], s[1], s[0], s[2] })
}

// BenchmarkGramRows times the Kronecker-factor product a·aᵀ on the
// feature-major statistics of the ProxyResNet step — A and G of both
// convolutions, then A of the first dense layer — half zeros, as rectified
// activations and the gradients behind them are. aᵀ is packed into storage
// kept across calls, as kfac keeps it.
func BenchmarkGramRows(b *testing.B) {
	for _, s := range [][2]int{{10, 2048}, {6, 2048}, {55, 1152}, {8, 1152}, {289, 32}} {
		a := sparseMatrix(rand.New(rand.NewPCG(uint64(s[0]), 15)), s[0], s[1], 0.5)
		m, at := New(0, 0), New(0, 0)
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.GramRows(a, at)
			}
		})
	}
}

// BenchmarkMatMulT is the backward pass's product: the output gradient times
// the transposed weight matrix, packed into storage kept across calls.
func BenchmarkMatMulT(b *testing.B) {
	var yt Matrix
	mulT := func(m, x, y *Matrix) *Matrix { return m.MatMulTPacked(x, y, &yt) }
	benchGEMM(b, mulT, func(s [3]int) (int, int, int, int) { return s[0], s[2], s[1], s[2] })
}
