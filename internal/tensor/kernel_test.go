package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"compso/internal/cpu"
)

// kernelSpecials are the values planted in the operands of the kernel's
// differential tests: zeros of both signs, ±Inf, NaN and denormals (whose
// products underflow, and which some hardware flushes to zero).
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 1e-310, -2.5e-308, math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// kernelCase is one call of addRows: dst is the output row, b holds rows
// whose last one ends at the end of the slice, and the terms may repeat a
// row and come in any order.
type kernelCase struct {
	dst, b []float64
	stride int
	ks     []int
	vs     []float64
}

// kernelValue draws a Gaussian value, or one time in eight a special.
func kernelValue(rng *rand.Rand) float64 {
	if rng.IntN(8) == 0 {
		return kernelSpecials[rng.IntN(len(kernelSpecials))]
	}
	return rng.NormFloat64()
}

// kernelValues draws n values of kernelValue.
func kernelValues(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = kernelValue(rng)
	}
	return s
}

// randomKernelCase draws a case with n output columns and nt terms; about
// one value in eight of b, vs and dst is a special.
func randomKernelCase(rng *rand.Rand, n, nt int) kernelCase {
	c := kernelCase{stride: n + rng.IntN(4), ks: make([]int, nt), vs: make([]float64, nt), dst: make([]float64, n)}
	rows := 1 + rng.IntN(nt+3)
	c.b = make([]float64, (rows-1)*c.stride+n)
	for i := range c.b {
		c.b[i] = kernelValue(rng)
	}
	for t := range c.ks {
		c.ks[t], c.vs[t] = rng.IntN(rows), kernelValue(rng)
	}
	for j := range c.dst {
		c.dst[j] = kernelValue(rng)
	}
	return c
}

// checkOnPaths runs kernel on a copy of out through the portable body and
// on another through the AVX kernel, and requires the same bits in both
// (NaN meets NaN), and no write into the guard values on either side of
// the AVX kernel's copy.
func checkOnPaths(t *testing.T, what string, out []float64, kernel func(out []float64)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	const guard, guardValue = 5, -7
	want := append([]float64(nil), out...)
	useAVX = false
	kernel(want)

	buf := make([]float64, guard+len(out)+guard)
	for i := range buf {
		buf[i] = guardValue
	}
	got := buf[guard : guard+len(out)]
	copy(got, out)
	useAVX = true
	kernel(got)
	sameBits(t, what, got, want)
	for i, v := range buf {
		if (i < guard || i >= guard+len(out)) && v != guardValue {
			t.Fatalf("%s: wrote %g at %d outside the output", what, v, i-guard)
		}
	}
}

// checkKernelPaths runs c through both bodies of addRows (checkOnPaths).
func checkKernelPaths(t *testing.T, what string, c kernelCase) {
	t.Helper()
	checkOnPaths(t, what, c.dst, func(dst []float64) { addRows(dst, c.b, c.stride, c.ks, c.vs) })
}

// Every n in 0…67 meets every SIMD tail after zero to four full strips of
// sixteen columns, and every term count in 0…17 covers none, fewer than a
// gathered block, a block and one more.
func TestKernelMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skip("no AVX kernel on this host")
	}
	rng := rand.New(rand.NewPCG(41, 16))
	for n := 0; n <= 67; n++ {
		for nt := 0; nt <= 17; nt++ {
			for range 3 {
				c := randomKernelCase(rng, n, nt)
				checkKernelPaths(t, fmt.Sprintf("n=%d terms=%d", n, nt), c)
			}
		}
	}
}

// FuzzKernelMatchesPortable draws the shape from its first arguments and
// reads float64 bit patterns from data into b, then the coefficients, then
// dst, so the fuzzer reaches any value, signalling NaNs included.
func FuzzKernelMatchesPortable(f *testing.F) {
	f.Add(uint8(10), uint8(5), uint64(1), []byte{})
	f.Add(uint8(67), uint8(17), uint64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())))
	f.Add(uint8(3), uint8(16), uint64(3), binary.LittleEndian.AppendUint64(nil, 1))
	f.Fuzz(func(t *testing.T, n, nt uint8, seed uint64, data []byte) {
		if !cpu.HasAVX {
			t.Skip("no AVX kernel on this host")
		}
		c := randomKernelCase(rand.New(rand.NewPCG(seed, uint64(len(data)))), int(n), int(nt%40))
		for _, s := range [][]float64{c.b, c.vs, c.dst} {
			for i := range s {
				if len(data) < 8 {
					break
				}
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		}
		checkKernelPaths(t, "fuzz", c)
	})
}

// TestPanelMatchesPortable holds addPanel's AVX kernel to its portable body
// on blocks of every row count in 1…9 (two blocks and every remainder),
// every width in 0…19 (two strips of eight and every tail) and zero to six
// terms and 129, with a stride of a longer than the terms, about one value
// in eight a special.
func TestPanelMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skip("no AVX kernel on this host")
	}
	rng := rand.New(rand.NewPCG(42, 4))
	for rows := 1; rows <= 9; rows++ {
		for n := 0; n <= 19; n++ {
			for _, nk := range []int{0, 1, 2, 3, 4, 5, 6, 129} {
				as := nk + rng.IntN(3)
				a, bt := kernelValues(rng, (rows-1)*as+nk), kernelValues(rng, nk*n)
				checkOnPaths(t, fmt.Sprintf("rows=%d n=%d terms=%d", rows, n, nk), kernelValues(rng, rows*n), func(dst []float64) {
					addPanel(dst, rows, n, a, as, bt, nk)
				})
			}
		}
	}
}

// TestRank2MatchesPortable holds rank2's AVX kernel to its portable body at
// every length in 0…67: every tail after zero to four iterations of
// sixteen columns.
func TestRank2MatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skip("no AVX kernel on this host")
	}
	rng := rand.New(rand.NewPCG(42, 2))
	for n := 0; n <= 67; n++ {
		for range 4 {
			p, u := kernelValues(rng, n+rng.IntN(3)), kernelValues(rng, n+rng.IntN(3))
			f, g := kernelValue(rng), kernelValue(rng)
			checkOnPaths(t, fmt.Sprintf("n=%d", n), kernelValues(rng, n), func(row []float64) { rank2(row, p, u, f, g) })
		}
	}
}

// TestRotateSweepMatchesPortable holds rotateSweep's AVX kernel to its
// portable body for rows of every width in 0…67 and sweeps of zero to
// seven rotations, whose coefficients need not be a rotation's.
func TestRotateSweepMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skip("no AVX kernel on this host")
	}
	rng := rand.New(rand.NewPCG(42, 3))
	for n := 0; n <= 67; n++ {
		for rot := 0; rot <= 7; rot++ {
			cs := kernelValues(rng, 2*rot)
			checkOnPaths(t, fmt.Sprintf("n=%d rotations=%d", n, rot), kernelValues(rng, (rot+1)*n), func(q []float64) { rotateSweep(q, n, cs) })
		}
	}
}

// eigenSymPortable decomposes a on the portable path.
func eigenSymPortable(a *Matrix) (*Eigen, error) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = false
	return EigenSym(a)
}

// sameEigen requires the same error as want's, or the same bits in Λ and Q.
func sameEigen(t *testing.T, what string, got *Eigen, err error, want *Eigen, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, portable %v", what, err, wantErr)
	}
	if err == nil {
		sameBits(t, what+" Λ", got.Values, want.Values)
		sameBits(t, what+" Q", got.Q.Data, want.Q.Data)
	}
}

// TestEigenSymMatchesPortable holds EigenSym on each kernel path to the
// portable path bit for bit: every n in 1…67 (every tail of every kernel),
// and 128 and 289, the workload's largest factor. The inputs are the
// property suite's (activation covariances, diagonal, repeated
// eigenvalues, zero blocks, scales 1e±150, Wilkinson, graded) and a
// covariance with a zero column, whose reflection is the identity.
func TestEigenSymMatchesPortable(t *testing.T) {
	type input struct {
		name string
		a    *Matrix
		want *Eigen
	}
	var inputs []input
	sizes := []int{128, 289}
	for n := 1; n <= 67; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(uint64(n), 42))
		cases := map[string]*Matrix{"relu-covariance": reluCovariance(rng, n)}
		if n <= 67 {
			cases = eigCases(rng, n)
		}
		zero := reluCovariance(rng, n)
		for i := 0; i < n; i++ {
			zero.Data[i*n+n/2], zero.Data[n/2*n+i] = 0, 0
		}
		cases["zero-column"] = zero
		for _, s := range []float64{1e-150, 1e150} {
			cases[fmt.Sprintf("scaled-%g", s)] = New(n, n).Scale(s, cases["relu-covariance"])
		}
		for name, a := range cases {
			inputs = append(inputs, input{fmt.Sprintf("n=%d %s", n, name), a, must(eigenSymPortable(a))})
		}
	}
	eachKernel(t, func(t *testing.T) {
		for _, in := range inputs {
			got, err := EigenSym(in.a)
			sameEigen(t, in.name, got, err, in.want, nil)
		}
	})
}

// FuzzEigenSymMatchesPortable reads the upper triangle of an n×n matrix,
// n ≤ 40, as float64 bit patterns from data (the rest random under seed),
// and holds both paths to the same result: non-finite inputs give the same
// error.
func FuzzEigenSymMatchesPortable(f *testing.F) {
	f.Add(uint8(7), uint64(1), []byte{})
	f.Add(uint8(33), uint64(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e300)))
	f.Add(uint8(17), uint64(3), binary.LittleEndian.AppendUint64(nil, 1))
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, data []byte) {
		if !cpu.HasAVX {
			t.Skip("no AVX kernel on this host")
		}
		a := reluCovariance(rand.New(rand.NewPCG(seed, uint64(len(data)))), 1+int(n%40))
		for i := 0; i < a.Rows && len(data) >= 8; i++ {
			for j := i; j < a.Cols && len(data) >= 8; j++ {
				a.Data[i*a.Cols+j] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		}
		want, wantErr := eigenSymPortable(a)
		got, err := EigenSym(a)
		sameEigen(t, fmt.Sprintf("n=%d", a.Rows), got, err, want, wantErr)
	})
}
