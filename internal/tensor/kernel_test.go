package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
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

// randomKernelCase draws a case with n output columns and nt terms; about
// one value in eight of b, vs and dst is a special.
func randomKernelCase(rng *rand.Rand, n, nt int) kernelCase {
	value := func() float64 {
		if rng.IntN(8) == 0 {
			return kernelSpecials[rng.IntN(len(kernelSpecials))]
		}
		return rng.NormFloat64()
	}
	c := kernelCase{stride: n + rng.IntN(4), ks: make([]int, nt), vs: make([]float64, nt), dst: make([]float64, n)}
	rows := 1 + rng.IntN(nt+3)
	c.b = make([]float64, (rows-1)*c.stride+n)
	for i := range c.b {
		c.b[i] = value()
	}
	for t := range c.ks {
		c.ks[t], c.vs[t] = rng.IntN(rows), value()
	}
	for j := range c.dst {
		c.dst[j] = value()
	}
	return c
}

// checkKernelPaths runs c through the portable body and the AVX kernel and
// requires the same bits in dst (NaN meets NaN), and no write outside dst.
func checkKernelPaths(t *testing.T, what string, c kernelCase) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	const guard = 5
	want := append([]float64(nil), c.dst...)
	useAVX = false
	addRows(want, c.b, c.stride, c.ks, c.vs)

	buf := make([]float64, guard+len(c.dst)+guard)
	for i := range buf {
		buf[i] = -7
	}
	got := buf[guard : guard+len(c.dst)]
	copy(got, c.dst)
	useAVX = true
	addRows(got, c.b, c.stride, c.ks, c.vs)
	sameBits(t, what, got, want)
	for i, v := range buf {
		if (i < guard || i >= guard+len(c.dst)) && v != -7 {
			t.Fatalf("%s: wrote %g at %d outside dst", what, v, i-guard)
		}
	}
}

// Every n in 0…67 meets every SIMD tail after zero to four full strips of
// sixteen columns, and every term count in 0…17 covers none, fewer than a
// gathered block, a block and one more.
func TestKernelMatchesPortable(t *testing.T) {
	if !avxSupported {
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
		if !avxSupported {
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
