package gpusim

import "testing"

func TestTimeZeroElements(t *testing.T) {
	if got := A100().Time(COMPSOFused(), 0); got != 0 {
		t.Fatalf("Time(0) = %g", got)
	}
}

func TestTimeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative element count did not panic")
		}
	}()
	A100().Time(COMPSOFused(), -1)
}

func TestFusionWins(t *testing.T) {
	// §4.5's whole point: the fused pipeline must beat the framework-style
	// pipelines at every realistic size.
	d := A100()
	for _, n := range []int{1 << 18, 1 << 22, 1 << 25} {
		fused := d.Throughput(COMPSOFused(), n)
		torch := d.Throughput(QSGDTorch(), n)
		if fused <= torch {
			t.Fatalf("n=%d: fused %g <= torch %g", n, fused, torch)
		}
	}
}

func TestFigure8Ordering(t *testing.T) {
	// Paper Figure 8 at large sizes: QSGD (CUDA) > COMPSO (CUDA) >
	// SZ (CUDA) > QSGD (PyTorch) > CocktailSGD (PyTorch), and COMPSO is
	// ~1.7x CocktailSGD.
	d := A100()
	n := 32 << 20 / 4 // 32 MB of FP32
	qsgd := d.Throughput(QSGDCUDA(), n)
	compso := d.Throughput(COMPSOFused(), n)
	sz := d.Throughput(SZCUDA(), n)
	qsgdTorch := d.Throughput(QSGDTorch(), n)
	cocktail := d.Throughput(CocktailTorch(), n)
	if !(qsgd > compso && compso > sz && sz > qsgdTorch && qsgdTorch > cocktail) {
		t.Fatalf("ordering violated: qsgd=%g compso=%g sz=%g torch=%g cocktail=%g",
			qsgd, compso, sz, qsgdTorch, cocktail)
	}
	// The paper measures COMPSO 1.7x faster than CocktailSGD; our pure
	// traffic model (which cannot see CocktailSGD's partially overlapping
	// kernels) lands higher, but the speedup must be >1 and bounded.
	if ratio := compso / cocktail; ratio < 1.5 || ratio > 12 {
		t.Fatalf("COMPSO/CocktailSGD = %g, want within [1.5, 12]", ratio)
	}
}

func TestThroughputSaturatesWithSize(t *testing.T) {
	// Launch overhead dominates small inputs; throughput must grow with
	// data size and flatten (Figure 8's x-axis shape).
	d := A100()
	small := d.Throughput(COMPSOFused(), 1<<14)
	large := d.Throughput(COMPSOFused(), 1<<24)
	huge := d.Throughput(COMPSOFused(), 1<<26)
	if small >= large {
		t.Fatalf("throughput did not grow: %g -> %g", small, large)
	}
	if (huge-large)/large > 0.05 {
		t.Fatalf("throughput did not saturate: %g -> %g", large, huge)
	}
}

func TestSortCostGrows(t *testing.T) {
	d := A100()
	p := Pipeline{Name: "sorting", Launches: 2, PassBytesPerElem: 8, SortN: true}
	// Per-element sort cost grows with log n. Compare sizes large enough
	// that launch overhead is amortized in both, isolating the sort term.
	perElemSmall := d.Time(p, 1<<22) / float64(1<<22)
	perElemLarge := d.Time(p, 1<<26) / float64(1<<26)
	if perElemLarge <= perElemSmall {
		t.Fatal("sort cost per element did not grow with size")
	}
}

func TestDecompressTimePositive(t *testing.T) {
	d := A100()
	if d.DecompressTime(COMPSOFused(), 1<<20) <= 0 {
		t.Fatal("DecompressTime not positive")
	}
}
