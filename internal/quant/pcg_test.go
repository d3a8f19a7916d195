package quant

import (
	"math"
	"testing"

	"compso/internal/xrand"
)

// TestAdvancePCGEqualsDraws: advancing a PCG by n lands where n draws do,
// both in its encoded state and in the draws that follow, for every seed
// tried.
func TestAdvancePCGEqualsDraws(t *testing.T) {
	for _, seed := range []int64{0, 1, 93, -7} {
		for _, n := range []uint64{0, 1, 63, 64, 65, 1<<20 + 3} {
			drawn, jumped := xrand.NewPCG(seed), xrand.NewPCG(seed)
			for i := uint64(0); i < n; i++ {
				drawn.Uint64()
			}
			AdvancePCG(jumped, n)
			a, _ := drawn.MarshalBinary()
			b, _ := jumped.MarshalBinary()
			if string(a) != string(b) {
				t.Fatalf("seed %d n=%d: advanced state %x, drawn state %x", seed, n, b, a)
			}
			for i := 0; i < 4; i++ {
				if x, y := drawn.Uint64(), jumped.Uint64(); x != y {
					t.Fatalf("seed %d n=%d: draw %d after the jump: %#x, want %#x", seed, n, i, y, x)
				}
			}
		}
	}
}

// TestAdvancePCGComposes: two jumps add up.
func TestAdvancePCGComposes(t *testing.T) {
	a, b := xrand.NewPCG(5), xrand.NewPCG(5)
	AdvancePCG(a, 1000)
	AdvancePCG(a, 24)
	AdvancePCG(b, 1024)
	if a.Uint64() != b.Uint64() {
		t.Fatal("AdvancePCG(1000) then (24) differs from AdvancePCG(1024)")
	}
}

// TestFilterKeptMatchesKernels holds the kept counter to both fused filter
// kernels, NaN, ±Inf and values at the bound included.
func TestFilterKeptMatchesKernels(t *testing.T) {
	const ebf = 4e-3
	for _, n := range []int{0, 1, 2, 3, 6, 63, 64, 65, 1000} {
		src := make([]float32, n)
		xrand.KFACGradient(xrand.NewSeeded(int64(n)), src, 0.01)
		special := []float32{float32(ebf), -float32(ebf), float32(math.NaN()), float32(math.Inf(-1)), 0}
		for i := 0; i < n && i < len(special); i++ {
			src[i*(n/len(special)+1)%n] = special[i]
		}
		bitmap, dst := make([]byte, (n+7)/8), make([]uint32, n)
		kPCG, _ := FilterQuantizeZigPCG(bitmap, dst, src, ebf, BinWidth(ebf, SR), xrand.NewPCG(1))
		kRN, _ := FilterQuantizeZig(bitmap, dst, src, ebf, BinWidth(ebf, RN), RN, nil)
		if got := FilterKept(src, ebf); got != kPCG || got != kRN {
			t.Fatalf("n=%d: FilterKept %d, FilterQuantizeZigPCG %d, FilterQuantizeZig %d", n, got, kPCG, kRN)
		}
	}
}
