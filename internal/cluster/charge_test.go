package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"compso/internal/cpu"
)

// chargeSpecials are the values the clock and category cells and the
// charges are drawn from: zeros of both signs, infinities of both signs,
// NaNs of both signs with distinct payloads (a signalling one among them)
// and a few ordinary values.
var chargeSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000abc),
	math.Float64frombits(0xfff8000000000002), math.Float64frombits(0xfff0000000000003),
	1, 0.5, 3e-3, 1e300,
}

// TestComputeRanksKernelMatchesPortable holds a uniform charge on
// chargeAVX to ComputeRanks' loop bit for bit: from the same clocks and
// category cells, every charge through each path must leave every cell of
// both columns the same, inside [lo, hi) and out. The ranges cover every
// length 0 to 9 and 4095 to 4097 at offsets 0 to 4, and the single rank a
// goroutine Worker charges. A NaN charge takes the loop on both paths and
// is compared too; a negative one panics (the test below).
func TestComputeRanksKernelMatchesPortable(t *testing.T) {
	if !cpu.HasAVX {
		t.Skipf("no AVX kernel on this host (%s)", runtime.GOARCH)
	}
	defer func(saved bool) { useAVX = saved }(useAVX)
	const p = 4101
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 { return chargeSpecials[rng.Intn(len(chargeSpecials))] }
	start := NewLedger(p, false)
	startCat := start.column(start.cats, "compute")
	for r := 0; r < p; r++ {
		start.clocks[r], startCat[r] = pick(), pick()
		if r%3 == 0 {
			start.clocks[r], startCat[r] = 1e-3*rng.Float64(), 1e-3*rng.Float64()
		}
	}
	var ranges [][2]int
	for lo := 0; lo <= 4; lo++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096, 4097} {
			ranges = append(ranges, [2]int{lo, lo + n})
		}
	}
	ranges = append(ranges, [2]int{p - 1, p}, [2]int{2047, 2048})
	charges := append([]float64{1e-4, 2.5e-5}, chargeSpecials...)

	for _, rg := range ranges {
		for _, s := range charges {
			if s < 0 {
				continue // TestComputeRanksRejectsNegativeCharges
			}
			var got [2]*Ledger
			for i, avx := range []bool{false, true} {
				l := NewLedger(p, false)
				copy(l.clocks, start.clocks)
				copy(l.column(l.cats, "compute"), startCat)
				useAVX = avx
				l.ComputeRanks(rg[0], rg[1], s, nil, nil, 0, "compute")
				got[i] = l
			}
			what := fmt.Sprintf("[%d, %d) charged %g (%#x)", rg[0], rg[1], s, math.Float64bits(s))
			cols := map[string][2][]float64{
				"clock":    {got[0].clocks, got[1].clocks},
				"category": {got[0].cats["compute"], got[1].cats["compute"]},
			}
			for name, v := range cols {
				for r := range v[0] {
					if w, g := math.Float64bits(v[0][r]), math.Float64bits(v[1][r]); w != g {
						t.Fatalf("%s: %s of rank %d = %#x, portable %#x", what, name, r, g, w)
					}
				}
			}
		}
	}
}

// TestComputeRanksRejectsNegativeCharges: a negative charge panics on the
// first rank of the range on either path, before any cell moves.
func TestComputeRanksRejectsNegativeCharges(t *testing.T) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range []bool{false, cpu.HasAVX} {
		for _, s := range []float64{-1e-9, math.Inf(-1)} {
			useAVX = avx
			l := NewLedger(16, false)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if want := fmt.Sprintf("cluster: negative compute time %g for rank 3", s); msg != want {
						t.Errorf("avx=%v: recovered %q, want %q", avx, msg, want)
					}
				}()
				l.ComputeRanks(3, 11, s, nil, nil, 0, "compute")
			}()
			if stats, _ := l.Merged(); l.MaxTime() != 0 || len(stats) != 0 {
				t.Errorf("avx=%v: charge %g moved a cell before panicking", avx, s)
			}
		}
	}
}

// BenchmarkComputeRanks is a des.World compute op at P = 4096: one uniform
// charge to every rank, once per path (path=avx where the host has the
// kernel, then path=go, ComputeRanks' loop), in ns per rank.
func BenchmarkComputeRanks(b *testing.B) {
	const p = 4096
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range []bool{true, false} {
		if avx && !cpu.HasAVX {
			continue
		}
		useAVX = avx
		path := "path=go"
		if avx {
			path = "path=avx"
		}
		b.Run(path, func(b *testing.B) {
			l := NewLedger(p, true)
			defer l.Release()
			l.ComputeRanks(0, p, 1e-9, nil, nil, 0, "compute") // creates the column
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.ComputeRanks(0, p, 1e-9, nil, nil, 0, "compute")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/p, "ns/rank")
		})
	}
}
