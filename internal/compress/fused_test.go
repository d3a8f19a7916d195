package compress

import (
	"bytes"
	"testing"

	"compso/internal/encoding"
	"compso/internal/quant"
	"compso/internal/xrand"
)

func fusedTestInputs(t *testing.T) map[string][]float32 {
	t.Helper()
	grad := make([]float32, 10000)
	xrand.KFACGradient(xrand.NewSeeded(7), grad, 1.0)
	small := make([]float32, 33)
	xrand.KFACGradient(xrand.NewSeeded(9), small, 1e-3)
	// With the filter off, plane 0 of this one is 40 003 bytes: past the
	// length from which rANS interleaves, where the others all stay below it.
	wide := make([]float32, 40003)
	xrand.KFACGradient(xrand.NewSeeded(11), wide, 1.0)
	return map[string][]float32{
		"empty":    {},
		"one":      {0.125},
		"zeros":    make([]float32, 100),
		"small":    small,
		"gradient": grad,
		"wide":     wide,
	}
}

// TestCOMPSOFusedMatchesReference proves the fused single-pass Compress and
// Decompress are byte- and value-identical to the preserved multi-pass
// pipeline across filter/rounding/packing/codec configurations, including
// identical RNG stream consumption (same seed → same blob from either path).
func TestCOMPSOFusedMatchesReference(t *testing.T) {
	inputs := fusedTestInputs(t)
	codecs := []encoding.Codec{nil, encoding.Cascaded{}, encoding.Snappy{}}
	for _, filterOn := range []bool{true, false} {
		for _, mode := range []quant.Mode{quant.SR, quant.RN, quant.P05} {
			for _, bitPacked := range []bool{false, true} {
				for ci, cdc := range codecs {
					for name, src := range inputs {
						mk := func(seed int64) *COMPSO {
							c := NewCOMPSO(seed)
							c.FilterEnabled = filterOn
							c.Rounding = mode
							c.BitPacked = bitPacked
							c.Codec = cdc
							return c
						}
						fused, ref := mk(31), mk(31)
						// Two rounds back to back so RNG stream position
						// stays aligned across calls, not just on call one.
						for round := 0; round < 2; round++ {
							fb, err := fused.Compress(src)
							if err != nil {
								t.Fatalf("fused Compress: %v", err)
							}
							rb, err := ref.ReferenceCompress(src)
							if err != nil {
								t.Fatalf("ReferenceCompress: %v", err)
							}
							if !bytes.Equal(fb, rb) {
								t.Fatalf("filter=%v mode=%v packed=%v codec=%d input=%q round %d: fused blob differs from reference",
									filterOn, mode, bitPacked, ci, name, round)
							}
							if fused.LastFilterKept != ref.LastFilterKept || fused.LastFilterTotal != ref.LastFilterTotal {
								t.Fatalf("filter counters diverge: fused %d/%d ref %d/%d",
									fused.LastFilterKept, fused.LastFilterTotal, ref.LastFilterKept, ref.LastFilterTotal)
							}
							fv, err := fused.Decompress(rb)
							if err != nil {
								t.Fatalf("fused Decompress: %v", err)
							}
							rv, err := ref.ReferenceDecompress(fb)
							if err != nil {
								t.Fatalf("ReferenceDecompress: %v", err)
							}
							if len(fv) != len(rv) {
								t.Fatalf("decompressed lengths differ: %d vs %d", len(fv), len(rv))
							}
							for i := range fv {
								if fv[i] != rv[i] {
									t.Fatalf("input %q element %d: fused %g, reference %g", name, i, fv[i], rv[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestSZFusedMatchesReference checks SZ's fused pipeline against the
// multi-pass original.
func TestSZFusedMatchesReference(t *testing.T) {
	for _, eb := range []float64{1e-1, 4e-3} {
		s := NewSZ(eb)
		for name, src := range fusedTestInputs(t) {
			fb, err := s.Compress(src)
			if err != nil {
				t.Fatalf("fused Compress: %v", err)
			}
			rb, err := s.ReferenceCompress(src)
			if err != nil {
				t.Fatalf("ReferenceCompress: %v", err)
			}
			if !bytes.Equal(fb, rb) {
				t.Fatalf("eb=%g input=%q: fused SZ blob differs from reference", eb, name)
			}
			got, err := s.Decompress(fb)
			if err != nil {
				t.Fatalf("Decompress: %v", err)
			}
			if len(got) != len(src) {
				t.Fatalf("decompressed %d values, want %d", len(got), len(src))
			}
		}
	}
}

// TestQSGDFusedMatchesReference checks QSGD's fused pipeline — including
// identical stochastic-rounding stream consumption — against the multi-pass
// original.
func TestQSGDFusedMatchesReference(t *testing.T) {
	for _, bits := range []int{4, 8} {
		fused, ref := NewQSGD(bits, 17), NewQSGD(bits, 17)
		for name, src := range fusedTestInputs(t) {
			for round := 0; round < 2; round++ {
				fb, err := fused.Compress(src)
				if err != nil {
					t.Fatalf("fused Compress: %v", err)
				}
				rb, err := ref.ReferenceCompress(src)
				if err != nil {
					t.Fatalf("ReferenceCompress: %v", err)
				}
				if !bytes.Equal(fb, rb) {
					t.Fatalf("bits=%d input=%q round %d: fused QSGD blob differs from reference", bits, name, round)
				}
				if _, err := fused.Decompress(fb); err != nil {
					t.Fatalf("Decompress: %v", err)
				}
			}
		}
	}
}
