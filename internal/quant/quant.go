// Package quant implements the lossy quantization stage of the gradient
// compressors: value normalization (Eq. 3 of the paper), the three rounding
// modes the paper analyses (round-to-nearest, stochastic rounding, and the
// equal-probability P0.5 mode from §4.2), fixed-bit quantization as used by
// QSGD, and the fine-grained error-bounded quantization that COMPSO's
// variable bit-width packing is built on (§4.3).
package quant

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"compso/internal/bitstream"
)

// Mode selects the rounding scheme (Eq. 4 and §4.2).
type Mode int

const (
	// RN rounds to the nearest representable level — deterministic, uniform
	// error distribution (what SZ uses).
	RN Mode = iota
	// SR rounds stochastically with probability proportional to proximity
	// (Eq. 4) — unbiased, triangular error distribution (what QSGD and
	// COMPSO use).
	SR
	// P05 rounds up or down with equal probability — the "mode-2 SR" control
	// from §4.2: non-deterministic yet uniform error distribution, used to
	// show that the triangular shape (not non-determinism itself) is what
	// preserves accuracy.
	P05
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case RN:
		return "RN"
	case SR:
		return "SR"
	case P05:
		return "P0.5"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// round maps the real-valued level x to an integer level per the mode.
// rng may be nil for RN.
func round(x float64, mode Mode, rng *rand.Rand) int64 {
	switch mode {
	case RN:
		return int64(math.Round(x))
	case SR:
		floor := math.Floor(x)
		p := x - floor
		if rng.Float64() < p {
			return int64(floor) + 1
		}
		return int64(floor)
	case P05:
		floor := math.Floor(x)
		if x == floor {
			return int64(floor)
		}
		if rng.Float64() < 0.5 {
			return int64(floor) + 1
		}
		return int64(floor)
	default:
		panic(fmt.Sprintf("quant: unknown mode %d", mode))
	}
}

// MaxAbs returns max(|v|) over src (0 for empty input): NaN when src holds a
// NaN, else +Inf when it holds an infinity. It compares magnitudes by their
// bits, whose order matches the values' and puts NaN above +Inf.
func MaxAbs(src []float32) float64 {
	var m uint32
	for _, v := range src {
		m = max(m, math.Float32bits(v)&^(1<<31))
	}
	return float64(math.Float32frombits(m))
}

// QuantizeFixed performs n-bit quantization in the QSGD style: values are
// normalized by the maximum magnitude (Eq. 3) and mapped to integer levels
// in [−(2^(bits−1)−1), 2^(bits−1)−1] using the given rounding mode.
// It returns the levels and the scale needed to dequantize. bits must be in
// [2, 16]. rng is required for SR and P05.
func QuantizeFixed(src []float32, bitWidth int, mode Mode, rng *rand.Rand) ([]int32, float64) {
	if bitWidth < 2 || bitWidth > 16 {
		panic(fmt.Sprintf("quant: QuantizeFixed bits %d outside [2,16]", bitWidth))
	}
	levels := make([]int32, len(src))
	maxAbs := MaxAbs(src)
	if maxAbs == 0 {
		return levels, 0
	}
	maxLevel := float64(int32(1)<<(bitWidth-1) - 1)
	scale := maxAbs / maxLevel
	for i, v := range src {
		x := float64(v) / scale
		l := round(x, mode, rng)
		if l > int64(maxLevel) {
			l = int64(maxLevel)
		}
		if l < -int64(maxLevel) {
			l = -int64(maxLevel)
		}
		levels[i] = int32(l)
	}
	return levels, scale
}

// DequantizeFixed reverses QuantizeFixed.
func DequantizeFixed(levels []int32, scale float64) []float32 {
	out := make([]float32, len(levels))
	for i, l := range levels {
		out[i] = float32(float64(l) * scale)
	}
	return out
}

// binWidth returns the quantization bin width that guarantees a pointwise
// error of at most eb under the given rounding mode: RN lands within half a
// bin of the value, while SR/P05 can land a full bin away.
func binWidth(eb float64, mode Mode) float64 {
	if mode == RN {
		return 2 * eb
	}
	return eb
}

// QuantizeEB quantizes src with an absolute error bound eb: each value maps
// to the integer code round(v/binWidth), so |dequantized − v| <= eb holds
// for every element under any rounding mode. This is COMPSO's fine-grained
// error-bounded quantizer: the code range adapts to the data range, so the
// bit width packed downstream follows the error bound instead of a rigid
// 8/4/2/1-bit grid. It panics if eb <= 0.
func QuantizeEB(src []float32, eb float64, mode Mode, rng *rand.Rand) []int32 {
	if eb <= 0 {
		panic(fmt.Sprintf("quant: error bound %g <= 0", eb))
	}
	w := binWidth(eb, mode)
	codes := make([]int32, len(src))
	for i, v := range src {
		codes[i] = int32(round(float64(v)/w, mode, rng))
	}
	return codes
}

// DequantizeEB reverses QuantizeEB with the same eb and mode.
func DequantizeEB(codes []int32, eb float64, mode Mode) []float32 {
	w := binWidth(eb, mode)
	out := make([]float32, len(codes))
	for i, c := range codes {
		out[i] = float32(float64(c) * w)
	}
	return out
}

// ZigZag maps signed codes to unsigned so that small magnitudes of either
// sign become small values, which is what makes the variable-width packing
// and the entropy coders effective.
func ZigZag(v int32) uint32 { return uint32(v<<1) ^ uint32(v>>31) }

// UnZigZag reverses ZigZag.
func UnZigZag(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// PackCodes serializes signed quantization codes at the minimum bit width
// that covers the largest zig-zag value — §4.3's packing of (for example)
// 7-bit codes into bytes where QSGD would spend 8. The output is
// self-describing (count, width, then the bit-packed codes).
func PackCodes(codes []int32) []byte {
	var maxZig uint32
	for _, c := range codes {
		if z := ZigZag(c); z > maxZig {
			maxZig = z
		}
	}
	width := uint(bits.Len32(maxZig)) // 0 for all-zero input
	w := bitstream.NewWriter(len(codes)*int(width)/8 + 16)
	w.WriteUvarint(uint64(len(codes)))
	w.WriteBits(uint64(width), 6)
	for _, c := range codes {
		w.WriteBits(uint64(ZigZag(c)), width)
	}
	return w.Bytes()
}

// UnpackCodes reverses PackCodes. It returns an error on truncated or
// corrupt input.
func UnpackCodes(buf []byte) ([]int32, error) {
	r := bitstream.NewReader(buf)
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, fmt.Errorf("quant: unpack count: %w", err)
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("quant: implausible code count %d", n)
	}
	width64, err := r.ReadBits(6)
	if err != nil {
		return nil, fmt.Errorf("quant: unpack width: %w", err)
	}
	if width64 > 32 {
		return nil, fmt.Errorf("quant: invalid code width %d", width64)
	}
	width := uint(width64)
	codes := make([]int32, n)
	for i := range codes {
		z, err := r.ReadBits(width)
		if err != nil {
			return nil, fmt.Errorf("quant: unpack code %d: %w", i, err)
		}
		codes[i] = UnZigZag(uint32(z))
	}
	return codes, nil
}

// PlaneSplit decomposes the zig-zag representation of codes into byte
// planes: plane p holds byte p (little-endian) of every code. Entropy
// coders work far better on byte-aligned planes than on a dense bit-packed
// stream (packed symbols straddle byte boundaries and destroy the byte
// statistics an order-0 coder exploits), and the plane layout is exactly
// what a GPU kernel would emit coalesced. Planes beyond the width of the
// largest code are omitted; all-zero input yields zero planes.
func PlaneSplit(codes []int32) [][]byte {
	var maxZig uint32
	for _, c := range codes {
		if z := ZigZag(c); z > maxZig {
			maxZig = z
		}
	}
	nPlanes := (bits.Len32(maxZig) + 7) / 8
	planes := make([][]byte, nPlanes)
	for p := range planes {
		planes[p] = make([]byte, len(codes))
	}
	for i, c := range codes {
		z := ZigZag(c)
		for p := 0; p < nPlanes; p++ {
			planes[p][i] = byte(z >> (8 * p))
		}
	}
	return planes
}

// PlaneJoin reverses PlaneSplit for n codes. It returns an error if any
// plane has the wrong length or there are too many planes.
func PlaneJoin(planes [][]byte, n int) ([]int32, error) {
	if len(planes) > 4 {
		return nil, fmt.Errorf("quant: %d byte planes (max 4)", len(planes))
	}
	for p, plane := range planes {
		if len(plane) != n {
			return nil, fmt.Errorf("quant: plane %d has %d bytes, want %d", p, len(plane), n)
		}
	}
	codes := make([]int32, n)
	for i := range codes {
		var z uint32
		for p := range planes {
			z |= uint32(planes[p][i]) << (8 * p)
		}
		codes[i] = UnZigZag(z)
	}
	return codes, nil
}
