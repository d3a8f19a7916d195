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
// portable loops, then the AVX kernels where the CPU runs them. A ring
// whose links are all of one class (every leader ring, a flat ring on one
// node or of one GPU a node) takes ringStepUniform and the rest ringStep,
// so the schedule tests that run on each path hold both kernels and both
// loops to their oracle, on uniform and on mixed rings.
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

// uniform gives every link link 0's α and β, as on a ring of one link
// class.
func (r ringState) uniform() ringState {
	for i := range r.alpha {
		r.alpha[i], r.beta[i] = r.alpha[0], r.beta[0]
	}
	return r
}

// durations returns each link's linkTime of its chunk: the window
// ringStepUniform reads.
func (r ringState) durations() []float64 {
	dur := make([]float64, len(r.size))
	for i := range dur {
		dur[i] = linkTime(r.alpha[i], r.beta[i], r.size[i])
	}
	return dur
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

// TestRingKernelMatchesPortable holds each ring kernel to its portable
// loop bit for bit, NaN payloads included, on mixed rings and on uniform
// ones: from the same operands, three untraced steps through each path
// must leave the same clk and busy, and no kernel may write past them.
// ringStep runs on (α, β, size) and ringStepUniform on the links'
// durations, and the two loops must agree with each other too, except in
// which NaN a NaN start plus a NaN duration keeps. Which of two NaNs an
// x86 multiply or add keeps follows the order the compiler put its
// operands in; under the race detector the instrumented loops order them
// otherwise (β·size where the native build takes size·β), so there a NaN
// only has to meet a NaN.
func TestRingKernelMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skipf("no AVX kernel on this host (%s)", runtime.GOARCH)
	}
	defer func(saved bool) { useAVX = saved }(useAVX)
	const guard, steps = 4, 3
	guardValue := math.Float64frombits(0x7ff80000deadbeef)
	// run takes three steps from in on one path and returns the clk and
	// busy it left, each between guard cells.
	run := func(in ringState, avx, uniform bool) (clkBuf, busyBuf []float64) {
		n := len(in.busy)
		clkBuf, busyBuf = make([]float64, guard+n+1+guard), make([]float64, guard+n+guard)
		for _, b := range [][]float64{clkBuf, busyBuf} {
			for i := range b {
				b[i] = guardValue
			}
		}
		clk, busy := clkBuf[guard:guard+n+1:guard+n+1], busyBuf[guard:guard+n:guard+n]
		copy(clk, in.clk)
		copy(busy, in.busy)
		dur := in.durations()
		useAVX = avx
		for k := 0; k < steps; k++ {
			if uniform {
				ringStepUniform(clk, busy, dur)
			} else {
				ringStep(clk, busy, in.alpha, in.beta, in.size, nil)
			}
		}
		return clkBuf, busyBuf
	}
	// same compares two runs' buffers; anyNaN lets a NaN match any NaN,
	// except in the guard cells, which must match by their bits.
	same := func(what string, got, want [2][]float64, anyNaN bool) {
		t.Helper()
		for c, name := range []string{"clk", "busy"} {
			for i := range want[c] {
				g, w := got[c][i], want[c][i]
				inside := i >= guard && i < len(want[c])-guard
				if math.Float64bits(g) != math.Float64bits(w) && !(anyNaN && inside && math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("%s: %s[%d] = %#x, want %#x", what, name, i-guard, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 5, 7, 8, 9, 1023, 1024, 1025} {
		for trial := 0; trial < 40; trial++ {
			kind, in := "random", randomRing(rng, n)
			if trial%2 == 1 {
				kind, in = "adversarial", adversarialRing(rng, n)
			}
			if trial%4 >= 2 {
				kind, in = kind+" uniform", in.uniform()
			}
			what := fmt.Sprintf("n=%d %s ring %d", n, kind, trial)
			var loop, kernel, uniformLoop, uniformKernel [2][]float64
			loop[0], loop[1] = run(in, false, false)
			kernel[0], kernel[1] = run(in, true, false)
			uniformLoop[0], uniformLoop[1] = run(in, false, true)
			uniformKernel[0], uniformKernel[1] = run(in, true, true)
			same(what+", ringStepAVX", kernel, loop, raceEnabled)
			same(what+", ringStepUniformAVX", uniformKernel, uniformLoop, raceEnabled)
			same(what+", ringStepUniform's loop", uniformLoop, loop, true)
		}
	}
}
