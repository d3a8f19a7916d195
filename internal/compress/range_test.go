package compress

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"compso/internal/quant"
)

// nonFinite are the values no family can code, NaN also as a negative,
// signalling bit pattern: the checks read NaN from its bits, never from a
// float→int conversion whose result differs by platform.
var nonFinite = map[string]float32{
	"NaN":     float32(math.NaN()),
	"-sNaN":   math.Float32frombits(0xff800001),
	"+Inf":    float32(math.Inf(1)),
	"-Inf":    float32(math.Inf(-1)),
	"NaN-max": math.Float32frombits(0x7fffffff),
}

// TestCompressRejectsNonFinite feeds every registered family, with and
// without error feedback, a gradient holding one NaN or infinity: Compress
// must fail with ErrOutOfRange, and so must the multi-pass reference of the
// families that keep one.
func TestCompressRejectsNonFinite(t *testing.T) {
	for _, family := range Families() {
		for _, ef := range []bool{false, true} {
			for name, v := range nonFinite {
				t.Run(fmt.Sprintf("%s/ef=%t/%s", family, ef, name), func(t *testing.T) {
					x := kfacData(1000, 3)
					x[517] = v
					mk := func() Compressor {
						c, err := ByName(family, Options{Seed: 1, ErrorFeedback: ef})
						if err != nil {
							t.Fatal(err)
						}
						return c
					}
					if _, err := mk().Compress(x); !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("Compress: err = %v, want ErrOutOfRange", err)
					}
					if r, ok := mk().(interface {
						ReferenceCompress([]float32) ([]byte, error)
					}); ok {
						if _, err := r.ReferenceCompress(x); !errors.Is(err, ErrOutOfRange) {
							t.Fatalf("ReferenceCompress: err = %v, want ErrOutOfRange", err)
						}
					}
				})
			}
		}
	}
}

// TestCOMPSOInt32LevelEdge quantizes values at the edge of int32 levels in
// every rounding mode and both code layouts. Just inside (2^31−1)·binW,
// fused and reference write the same blob and it restores every value within
// the bound. A level of exactly 2^31 wraps to −2^31, whose zig-zag code is
// the fused kernels' NonFinite report: the input is finite, so Compress must
// go on and still match the reference byte for byte.
func TestCOMPSOInt32LevelEdge(t *testing.T) {
	for _, mode := range []quant.Mode{quant.RN, quant.SR, quant.P05} {
		for _, packed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/packed=%t", mode, packed), func(t *testing.T) {
				mk := func(eb float64) *COMPSO {
					c := NewCOMPSO(9)
					c.Rounding, c.BitPacked, c.EBQuant = mode, packed, eb
					return c
				}
				same := func(x []float32, eb float64) []byte {
					fused, err := mk(eb).Compress(x)
					if err != nil {
						t.Fatalf("Compress: %v", err)
					}
					ref, err := mk(eb).ReferenceCompress(x)
					if err != nil || !bytes.Equal(fused, ref) {
						t.Fatalf("reference differs from fused (err %v)", err)
					}
					return fused
				}

				edge := (1<<31 - 1) * quant.BinWidth(4e-3, mode)
				in := float32(edge)
				if float64(in) >= edge {
					in = math.Nextafter32(in, 0)
				}
				x := kfacData(300, 4)
				x[7], x[8] = in, -in
				c := mk(4e-3)
				y, err := c.Decompress(same(x, 4e-3))
				if err != nil {
					t.Fatal(err)
				}
				for i := range x {
					if d := math.Abs(float64(y[i]) - float64(x[i])); d > c.MaxError() {
						t.Fatalf("element %d: %g restored as %g", i, x[i], y[i])
					}
				}

				// A power-of-two bound makes 2^31·binW exact in float32.
				const eb = 1.0 / 256
				x[7] = float32((1 << 31) * quant.BinWidth(eb, mode))
				same(x, eb)
			})
		}
	}
}

// TestDecodeDispatchesTorchQSGD holds the framework-style QSGD to its own
// magic byte: Decode routes its blob to TorchQSGD's decoder, not to QSGD's
// Elias-gamma reader.
func TestDecodeDispatchesTorchQSGD(t *testing.T) {
	c := NewTorchQSGD(8, 5)
	blob, err := c.Compress(kfacData(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != magicTorchQSGD {
		t.Fatalf("magic %#x, want %#x", blob[0], magicTorchQSGD)
	}
	want, err := c.Decompress(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if sumFloat32s(got) != sumFloat32s(want) {
		t.Fatal("Decode differs from TorchQSGD.Decompress")
	}
	if _, err := (&QSGD{}).Decompress(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("QSGD.Decompress of a TorchQSGD blob: err = %v, want ErrCorrupt", err)
	}
}
