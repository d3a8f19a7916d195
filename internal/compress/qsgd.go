package compress

import (
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/bitstream"
	"compso/internal/encoding"
	"compso/internal/pool"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// QSGD implements the QSGD baseline [Alistarh et al., NeurIPS'17]:
// max-normalized fixed-bit quantization with stochastic rounding (Eq. 3–4)
// followed by Elias-gamma coding of the zig-zagged levels. The paper uses
// the 4-bit and 8-bit variants; 8-bit preserves K-FAC accuracy but caps the
// compression ratio well below COMPSO's (Figure 3).
type QSGD struct {
	// Bits is the quantization width (levels span ±(2^(Bits−1)−1)).
	Bits int
	rng  *rand.Rand
}

// NewQSGD returns a QSGD compressor with the given bit width and RNG seed
// for stochastic rounding.
func NewQSGD(bitWidth int, seed int64) *QSGD {
	return &QSGD{Bits: bitWidth, rng: xrand.NewSeeded(seed)}
}

// Name implements Compressor.
func (q *QSGD) Name() string { return fmt.Sprintf("QSGD-%dbit", q.Bits) }

// Compress implements Compressor. Fused rewrite: after the max-magnitude
// scan that Eq. 3's normalization requires, one kernel quantizes (with the
// same stochastic-rounding draws QuantizeFixed makes), zig-zags and
// gamma-codes each element straight into a pooled bit stream — no []int32
// level vector. Byte-identical to ReferenceCompress on the same RNG state.
// NaN or ±Inf input, which the scan finds, fails with ErrOutOfRange.
func (q *QSGD) Compress(src []float32) ([]byte, error) {
	if q.Bits < 2 || q.Bits > 16 {
		panic(fmt.Sprintf("quant: QuantizeFixed bits %d outside [2,16]", q.Bits))
	}
	n := len(src)
	scale := 0.0
	maxLevel := int64(int32(1)<<(q.Bits-1) - 1)
	maxAbs := quant.MaxAbs(src)
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return nil, errNonFinite("QSGD")
	}
	if maxAbs != 0 {
		scale = maxAbs / float64(maxLevel)
	}
	var w bitstream.Writer
	w.ResetBuf(pool.Bytes(n*q.Bits/8 + 16))
	if scale == 0 {
		// Constant-zero input: every level is 0, no RNG draws (QuantizeFixed
		// returns early before rounding).
		for i := 0; i < n; i++ {
			encoding.EliasGammaEncode(&w, 1) // ZigZag(0)+1
		}
	} else {
		for _, v := range src {
			// Stochastic rounding, exactly quant.round's SR arithmetic.
			x := float64(v) / scale
			floor := math.Floor(x)
			l := int64(floor)
			if q.rng.Float64() < x-floor {
				l++
			}
			if l > maxLevel {
				l = maxLevel
			}
			if l < -maxLevel {
				l = -maxLevel
			}
			// Gamma codes require values >= 1; zig-zag+1 keeps zeros cheap
			// (a single bit), which dominates quantized gradients.
			encoding.EliasGammaEncode(&w, uint64(quant.ZigZag(int32(l)))+1)
		}
	}
	stream := w.Bytes()
	out := make([]byte, 0, uvarintLen(uint64(n))+9+len(stream))
	out = putHeader(out, magicQSGD, n)
	out = putFloat64(out, scale)
	out = append(out, stream...)
	pool.PutBytes(w.Buf())
	return out, nil
}

// Decompress implements Compressor. Levels decode, un-zig-zag and rescale
// straight into the output slice.
func (q *QSGD) Decompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicQSGD, "QSGD")
	if err != nil {
		return nil, err
	}
	scale, rest, err := getFloat64(rest, "QSGD")
	if err != nil {
		return nil, err
	}
	r := bitstream.NewReader(rest)
	out := make([]float32, n)
	for i := range out {
		v, err := encoding.EliasGammaDecode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: QSGD: level %d: %v", ErrCorrupt, i, err)
		}
		if v-1 > 1<<31 {
			return nil, fmt.Errorf("%w: QSGD: level %d out of range", ErrCorrupt, i)
		}
		out[i] = float32(float64(quant.UnZigZag(uint32(v-1))) * scale)
	}
	return out, nil
}
