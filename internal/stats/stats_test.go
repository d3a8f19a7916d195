package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestCompareExact(t *testing.T) {
	a := []float32{1, -2, 3}
	m := Compare(a, a)
	if m.L2 != 0 || m.MaxAbs != 0 || !math.IsInf(m.PSNR, 1) {
		t.Fatalf("exact compare = %+v", m)
	}
}

func TestCompareKnownError(t *testing.T) {
	orig := []float32{0, 0, 0, 0}
	rec := []float32{1, -1, 1, -1}
	m := Compare(orig, rec)
	if !almostEqual(m.L2, 2, 1e-9) {
		t.Fatalf("L2 = %g, want 2", m.L2)
	}
	if m.MaxAbs != 1 || m.MeanAbs != 1 {
		t.Fatalf("MaxAbs=%g MeanAbs=%g, want 1,1", m.MaxAbs, m.MeanAbs)
	}
	if m.MeanBias != 0 {
		t.Fatalf("MeanBias = %g, want 0", m.MeanBias)
	}
}

func TestCompareBias(t *testing.T) {
	orig := []float32{0, 0}
	rec := []float32{0.5, 0.5}
	if m := Compare(orig, rec); !almostEqual(m.MeanBias, 0.5, 1e-9) {
		t.Fatalf("MeanBias = %g, want 0.5", m.MeanBias)
	}
}

func TestCompareLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare with mismatched lengths did not panic")
		}
	}()
	Compare([]float32{1}, []float32{1, 2})
}

func TestCompareEmpty(t *testing.T) {
	m := Compare(nil, nil)
	if !math.IsInf(m.PSNR, 1) {
		t.Fatalf("empty PSNR = %g", m.PSNR)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddAll([]float64{0.5, 1.5, 1.6, 9.9, -5, 15})
	if h.Counts[0] != 2 { // 0.5 and clamped -5
		t.Fatalf("bin 0 = %d, want 2", h.Counts[0])
	}
	if h.Counts[1] != 2 {
		t.Fatalf("bin 1 = %d, want 2", h.Counts[1])
	}
	if h.Counts[9] != 2 { // 9.9 and clamped 15
		t.Fatalf("bin 9 = %d, want 2", h.Counts[9])
	}
	if h.N != 6 {
		t.Fatalf("N = %d, want 6", h.N)
	}
}

func TestHistogramInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(1, 0, 5) did not panic")
		}
	}()
	NewHistogram(1, 0, 5)
}

func TestDensitySumsToOne(t *testing.T) {
	h := NewHistogram(-1, 1, 8)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64()*2 - 1)
	}
	var sum float64
	for _, d := range h.Density() {
		sum += d
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Fatalf("density sum = %g", sum)
	}
}

func TestTriangularityDistinguishesDistributions(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	uniform := NewHistogram(-1, 1, 21)
	triangular := NewHistogram(-1, 1, 21)
	for i := 0; i < 50000; i++ {
		uniform.Add(rng.Float64()*2 - 1)
		// Sum of two uniforms is triangular on [-1, 1].
		triangular.Add(rng.Float64() - rng.Float64())
	}
	u := uniform.Triangularity()
	tr := triangular.Triangularity()
	if tr <= u {
		t.Fatalf("triangularity(tri)=%g <= triangularity(uniform)=%g", tr, u)
	}
	if tr < 0.8 {
		t.Fatalf("triangular sample scored %g, want > 0.8", tr)
	}
	if u > 0.55 {
		t.Fatalf("uniform sample scored %g, want <= 0.55", u)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEqual(m, 5, 1e-12) {
		t.Fatalf("Mean = %g, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean nonzero")
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestByteEntropy(t *testing.T) {
	// Constant stream: zero entropy.
	if h := ByteEntropy(make([]byte, 100)); h != 0 {
		t.Fatalf("constant entropy = %g", h)
	}
	// Two equiprobable symbols: 1 bit.
	two := make([]byte, 1000)
	for i := range two {
		two[i] = byte(i % 2)
	}
	if h := ByteEntropy(two); !almostEqual(h, 1, 1e-9) {
		t.Fatalf("two-symbol entropy = %g, want 1", h)
	}
	// All 256 symbols equiprobable: 8 bits.
	all := make([]byte, 256*4)
	for i := range all {
		all[i] = byte(i % 256)
	}
	if h := ByteEntropy(all); !almostEqual(h, 8, 1e-9) {
		t.Fatalf("uniform entropy = %g, want 8", h)
	}
	if ByteEntropy(nil) != 0 {
		t.Fatal("empty entropy nonzero")
	}
}

func TestEntropyCompressionBound(t *testing.T) {
	if !math.IsInf(EntropyCompressionBound(make([]byte, 10)), 1) {
		t.Fatal("constant input bound should be +Inf")
	}
	two := make([]byte, 1000)
	for i := range two {
		two[i] = byte(i % 2)
	}
	if b := EntropyCompressionBound(two); !almostEqual(b, 8, 1e-9) {
		t.Fatalf("two-symbol bound = %g, want 8", b)
	}
}
