//go:build !race

package compress

import (
	"testing"

	"compso/internal/xrand"
)

// Steady-state allocation guards for the fused hot paths: after warm-up has
// populated the buffer arena, a Compress or Decompress call allocates the
// returned blob/value slice and nothing else: no per-stage intermediate and
// no boxed slice header on Put. AllocsPerRun truncates the mean, so a
// buffer that sync.Pool sheds under GC pressure and a call reallocates once
// in the 20 runs does not trip the bound; one more allocation per call does.
// (Excluded under -race: the detector's instrumentation skews alloc counts.)

func steadyGradient(n int) []float32 {
	src := make([]float32, n)
	xrand.KFACGradient(xrand.NewSeeded(3), src, 1.0)
	return src
}

func TestCOMPSOCompressSteadyStateAllocs(t *testing.T) {
	c := NewCOMPSO(3)
	src := steadyGradient(1 << 16)
	for i := 0; i < 4; i++ { // warm the arena
		if _, err := c.Compress(src); err != nil {
			t.Fatal(err)
		}
	}
	var sink []byte
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		sink, err = c.Compress(src)
		if err != nil {
			t.Fatal(err)
		}
	})
	_ = sink
	if allocs > 1 {
		t.Fatalf("COMPSO Compress steady state: %.1f allocs/op, want <= 1 (the blob)", allocs)
	}
}

func TestCOMPSODecompressSteadyStateAllocs(t *testing.T) {
	c := NewCOMPSO(3)
	src := steadyGradient(1 << 16)
	blob, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Decompress(blob); err != nil {
			t.Fatal(err)
		}
	}
	var sink []float32
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		sink, err = c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
	})
	_ = sink
	if allocs > 1 {
		t.Fatalf("COMPSO Decompress steady state: %.1f allocs/op, want <= 1 (the values)", allocs)
	}
}
