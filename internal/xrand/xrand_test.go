package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := NewSeeded(42)
	b := NewSeeded(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewSeeded(43)
	same := true
	a2 := NewSeeded(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestFillStatistics(t *testing.T) {
	rng := NewSeeded(1)
	v := make([]float32, 200000)
	Fill(rng, v, 2.0)
	var sum, sumSq float64
	for _, x := range v {
		sum += float64(x)
		sumSq += float64(x) * float64(x)
	}
	n := float64(len(v))
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %g, want ~0", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %g, want ~2", std)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := NewSeeded(2)
	v := make([]float32, 10000)
	FillUniform(rng, v, -3, 5)
	for i, x := range v {
		if x < -3 || x >= 5 {
			t.Fatalf("value %d = %g outside [-3, 5)", i, x)
		}
	}
}

func TestKFACGradientHasLargerRangeThanSGD(t *testing.T) {
	// §3 of the paper: K-FAC gradients have a larger range than SGD
	// gradients. The synthetic generators must reproduce that.
	rng := NewSeeded(3)
	kfac := make([]float32, 100000)
	sgd := make([]float32, 100000)
	KFACGradient(rng, kfac, 1.0)
	SGDGradient(rng, sgd, 1.0)
	maxAbs := func(v []float32) float64 {
		var m float64
		for _, x := range v {
			if a := math.Abs(float64(x)); a > m {
				m = a
			}
		}
		return m
	}
	if maxAbs(kfac) <= maxAbs(sgd) {
		t.Fatalf("K-FAC range %g <= SGD range %g", maxAbs(kfac), maxAbs(sgd))
	}
}

func TestKFACGradientNearZeroMass(t *testing.T) {
	// The filter branch of COMPSO relies on a large near-zero mass.
	rng := NewSeeded(4)
	v := make([]float32, 100000)
	KFACGradient(rng, v, 1.0)
	near := 0
	for _, x := range v {
		if math.Abs(float64(x)) < 4e-3 {
			near++
		}
	}
	frac := float64(near) / float64(len(v))
	if frac < 0.4 {
		t.Fatalf("near-zero fraction = %g, want >= 0.4", frac)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	rng := NewSeeded(6)
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	Shuffle(rng, idx)
	seen := make(map[int]bool, len(idx))
	for _, v := range idx {
		if seen[v] {
			t.Fatalf("duplicate %d after shuffle", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("lost elements: %d", len(seen))
	}
}
