package collective

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"compso/internal/cpu"
)

// eachPath runs f as one subtest per ring-step path this host has: the
// portable loop, then the AVX kernel where the CPU runs it.
func eachPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = false
	t.Run("portable", f)
	if !cpu.HasAVX {
		t.Logf("no AVX kernel on this host (%s)", runtime.GOARCH)
		return
	}
	useAVX = true
	t.Run("avx", f)
}

// ringSpecials are the values the adversarial rings draw every operand of
// later and linkTime from: zeros of both signs, NaNs of both signs with
// distinct payloads (a signalling one among them), +Inf, and a few
// ordinary values that tie with each other and with the sums they make.
var ringSpecials = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff8000000000002), math.Float64frombits(0xfff0000000000003),
	math.Inf(1), 1, 1, 2, 3, 0.5,
}

// ringState is one ring step's operands: n+1 clocks, n links' occupancy,
// α and β, and a window of n chunk sizes.
type ringState struct{ clk, busy, alpha, beta, size []float64 }

func (r ringState) clone() ringState {
	cp := func(x []float64) []float64 { return append([]float64(nil), x...) }
	return ringState{cp(r.clk), cp(r.busy), cp(r.alpha), cp(r.beta), cp(r.size)}
}

// randomRing is a ring as the schedules build it: clocks and ports apart,
// two link classes, ragged chunks.
func randomRing(rng *rand.Rand, n int) ringState {
	r := ringState{make([]float64, n+1), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		r.clk[i] = 1e-3 * rng.Float64()
		r.busy[i] = 1e-3 * rng.Float64()
		if rng.Intn(4) == 0 {
			r.alpha[i], r.beta[i] = 5e-6, 1/12.5e9
		} else {
			r.alpha[i], r.beta[i] = 2e-6, 1/150e9
		}
		r.size[i] = float64(rng.Intn(1 << 20))
	}
	r.clk[n] = r.clk[0]
	return r
}

// adversarialRing draws every operand from ringSpecials.
func adversarialRing(rng *rand.Rand, n int) ringState {
	r := ringState{make([]float64, n+1), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	pick := func() float64 { return ringSpecials[rng.Intn(len(ringSpecials))] }
	for i := 0; i < n; i++ {
		r.clk[i], r.busy[i], r.alpha[i], r.beta[i], r.size[i] = pick(), pick(), pick(), pick(), pick()
	}
	r.clk[n] = r.clk[0]
	return r
}

// TestRingKernelMatchesPortable holds ringStepAVX to the portable loop bit
// for bit, NaN payloads included: from the same operands, three untraced
// steps through each path must leave the same clk and busy, and neither
// may write past them. Which of two NaNs an x86 multiply or add keeps
// follows the order the compiler put its operands in; under the race
// detector the instrumented loop takes β·size where the native build
// takes size·β, so there a NaN only has to meet a NaN.
func TestRingKernelMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skipf("no AVX kernel on this host (%s)", runtime.GOARCH)
	}
	defer func(saved bool) { useAVX = saved }(useAVX)
	const guard, steps = 4, 3
	guardValue := math.Float64frombits(0x7ff80000deadbeef)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025} {
		for trial := 0; trial < 40; trial++ {
			kind, in := "random", randomRing(rng, n)
			if trial%2 == 1 {
				kind, in = "adversarial", adversarialRing(rng, n)
			}
			want := in.clone()
			useAVX = false
			for k := 0; k < steps; k++ {
				ringStep(want.clk, want.busy, want.alpha, want.beta, want.size, nil)
			}

			// The kernel's clk and busy sit between guard values.
			got := in.clone()
			clkBuf := make([]float64, guard+n+1+guard)
			busyBuf := make([]float64, guard+n+guard)
			for _, b := range [][]float64{clkBuf, busyBuf} {
				for i := range b {
					b[i] = guardValue
				}
			}
			got.clk = clkBuf[guard : guard+n+1 : guard+n+1]
			got.busy = busyBuf[guard : guard+n : guard+n]
			copy(got.clk, in.clk)
			copy(got.busy, in.busy)
			useAVX = true
			for k := 0; k < steps; k++ {
				ringStep(got.clk, got.busy, got.alpha, got.beta, got.size, nil)
			}

			what := fmt.Sprintf("n=%d %s ring %d", n, kind, trial)
			for name, v := range map[string][2][]float64{"clk": {got.clk, want.clk}, "busy": {got.busy, want.busy}} {
				for i := range v[1] {
					g, w := math.Float64bits(v[0][i]), math.Float64bits(v[1][i])
					if g != w && !(raceEnabled && math.IsNaN(v[0][i]) && math.IsNaN(v[1][i])) {
						t.Fatalf("%s: %s[%d] = %#x, portable %#x", what, name, i, g, w)
					}
				}
			}
			for name, b := range map[string][]float64{"clk": clkBuf, "busy": busyBuf} {
				for i, v := range b {
					if (i < guard || i >= len(b)-guard) && math.Float64bits(v) != math.Float64bits(guardValue) {
						t.Fatalf("%s: wrote %g at %d outside %s", what, v, i-guard, name)
					}
				}
			}
		}
	}
}
