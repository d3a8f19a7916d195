package quant

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"compso/internal/bitstream"
)

// This file holds the single-pass fused kernels behind the optimized
// compressors (§4.5 of the paper: "kernel fusion techniques to combine
// multiple operations into a single kernel, reducing the overhead of kernel
// launches and intermediate data measurement"). Each kernel walks the input
// exactly once, produces zig-zagged codes directly (the representation both
// the byte-plane layout and the dense bit packing consume), and tracks the
// running maximum so the caller knows the plane count / bit width without a
// second scan. The arithmetic — including the order and number of RNG draws
// — is bit-for-bit identical to the multi-pass Filter/QuantizeEB/ZigZag
// pipeline, which the equivalence tests in internal/compress enforce.

// BinWidth exposes the quantization bin width for an error bound under a
// rounding mode (RN lands within half a bin; SR/P05 can land a full bin
// away), so fused kernels outside this package size their grids identically
// to QuantizeEB.
func BinWidth(eb float64, mode Mode) float64 { return binWidth(eb, mode) }

// zigZag64 matches the int32 truncation + ZigZag mapping the multi-pass
// pipeline applies to each rounded level.
func zigZag64(l int64) uint32 { return ZigZag(int32(l)) }

// NonFinite is the maximum code a fused kernel reports when a value it
// quantized is NaN or ±Inf. A finite value whose level leaves int32 wraps,
// and one that wraps to −2³¹ has this code too, so a caller that sees it
// confirms on the input.
const NonFinite = math.MaxUint32

// checkFinite returns maxZig, or NonFinite when peak — the bits of the
// largest quantized magnitude, which order as the values do and put NaN
// above ±Inf — is not finite. Reading the bits keeps the check independent
// of what a platform makes of a NaN converted to an integer.
func checkFinite(maxZig, peak uint32) uint32 {
	if peak >= 0x7f800000 {
		return NonFinite
	}
	return maxZig
}

// QuantizeZigInto quantizes src under bin width binW into zig-zagged codes,
// writing dst[i] for every element, and returns the maximum code, or
// NonFinite when a value is NaN or ±Inf. dst must have length >=
// len(src). It fuses QuantizeEB and ZigZag into one pass; rng is required
// for SR and P05 and consumed exactly as QuantizeEB does.
func QuantizeZigInto(dst []uint32, src []float32, binW float64, mode Mode, rng *rand.Rand) (maxZig uint32) {
	var peak uint32
	for i, v := range src {
		peak = max(peak, math.Float32bits(v)&^(1<<31))
		z := zigZag64(round(float64(v)/binW, mode, rng))
		dst[i] = z
		maxZig = max(maxZig, z)
	}
	return checkFinite(maxZig, peak)
}

// FilterQuantizeZig fuses the filter scan and error-bounded quantization:
// values with |v| < ebf set their bit in bitmap (LSB-first, exactly the
// filter.Apply layout) and are dropped; the rest are quantized at bin width
// binW and written zig-zagged to dst in order. bitmap must have length
// (len(src)+7)/8 and is fully overwritten; dst must have length >=
// len(src). It returns the kept count and the maximum zig-zag code, or
// NonFinite when a kept value is NaN or ±Inf.
func FilterQuantizeZig(bitmap []byte, dst []uint32, src []float32, ebf, binW float64, mode Mode, rng *rand.Rand) (kept int, maxZig uint32) {
	var cur byte
	var peak uint32
	for i, v := range src {
		if math.Abs(float64(v)) < ebf {
			cur |= 1 << (i & 7)
		} else {
			peak = max(peak, math.Float32bits(v)&^(1<<31))
			z := zigZag64(round(float64(v)/binW, mode, rng))
			dst[kept] = z
			kept++
			maxZig = max(maxZig, z)
		}
		if i&7 == 7 {
			bitmap[i>>3] = cur
			cur = 0
		}
	}
	if len(src)&7 != 0 {
		bitmap[len(src)>>3] = cur
	}
	return kept, checkFinite(maxZig, peak)
}

// FilterQuantizeZigPCG is FilterQuantizeZig specialized to stochastic
// rounding over a concrete PCG source: the rounding draw applies
// (*rand.Rand).Float64's exact formula to the PCG directly, so the stream
// matches a rand.Rand wrapping the same PCG while the per-kept-value hot
// path skips the rand.Source interface dispatch.
func FilterQuantizeZigPCG(bitmap []byte, dst []uint32, src []float32, ebf, binW float64, pcg *rand.PCG) (kept int, maxZig uint32) {
	tb := filterBits(ebf)
	n := len(src)
	var peak uint32
	// 64-element blocks: the filter word is built branch-free (both operands
	// of the subtraction are below 2^31, so its sign bit is the comparison),
	// then only the kept lanes run the quantizer, walked in index order via
	// TrailingZeros64 so the RNG stream matches the element-at-a-time loop.
	nw := n >> 6
	for wi := 0; wi < nw; wi++ {
		blk := src[wi<<6 : wi<<6+64 : wi<<6+64]
		var w uint64
		for _, v := range blk {
			bit := uint64((math.Float32bits(v)&0x7fffffff - tb) >> 31)
			w = w>>1 | bit<<63
		}
		base := wi << 3
		bitmap[base] = byte(w)
		bitmap[base+1] = byte(w >> 8)
		bitmap[base+2] = byte(w >> 16)
		bitmap[base+3] = byte(w >> 24)
		bitmap[base+4] = byte(w >> 32)
		bitmap[base+5] = byte(w >> 40)
		bitmap[base+6] = byte(w >> 48)
		bitmap[base+7] = byte(w >> 56)
		for inv := ^w; inv != 0; inv &= inv - 1 {
			j := bits.TrailingZeros64(inv)
			peak = max(peak, math.Float32bits(blk[j])&^(1<<31))
			x := float64(blk[j]) / binW
			floor := math.Floor(x)
			l := int64(floor)
			if float64(pcg.Uint64()<<11>>11)/(1<<53) < x-floor {
				l++
			}
			z := zigZag64(l)
			dst[kept] = z
			kept++
			if z > maxZig {
				maxZig = z
			}
		}
	}
	var cur byte
	for i := nw << 6; i < n; i++ {
		if a := math.Float32bits(src[i]) & 0x7fffffff; a < tb {
			cur |= 1 << (i & 7)
		} else {
			peak = max(peak, a)
			x := float64(src[i]) / binW
			floor := math.Floor(x)
			l := int64(floor)
			if float64(pcg.Uint64()<<11>>11)/(1<<53) < x-floor {
				l++
			}
			z := zigZag64(l)
			dst[kept] = z
			kept++
			if z > maxZig {
				maxZig = z
			}
		}
		if i&7 == 7 {
			bitmap[i>>3] = cur
			cur = 0
		}
	}
	if n&7 != 0 {
		bitmap[n>>3] = cur
	}
	return kept, checkFinite(maxZig, peak)
}

// filterBits returns the bit pattern t of the smallest float32 >= ebf. The
// filter test runs in the integer domain: float32→float64 conversion is
// exact, so |v| < ebf holds iff |v| < t, and for non-negative floats (plus
// NaN/Inf, whose magnitudes compare above every finite t exactly as
// math.Abs(NaN/Inf) < ebf is false) that order matches the order of their
// bit patterns.
func filterBits(ebf float64) uint32 {
	t := float32(ebf)
	if float64(t) < ebf {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	return math.Float32bits(t)
}

// FilterKept returns how many values of src the filter at ebf keeps — the
// kept count FilterQuantizeZig and FilterQuantizeZigPCG return for src,
// without quantizing. A caller that splits the fused pass by range uses it
// to place a range's codes and its first stochastic-rounding draw.
func FilterKept(src []float32, ebf float64) int {
	// Two magnitudes a 64-bit word, each with its bit 31 set: subtracting
	// the threshold from both halves borrows across neither, and a half
	// keeps bit 31 exactly when its |v| >= t. Two words a step keep two
	// independent sums; a half's count stays below 2^30.
	tb := filterBits(ebf)
	t := uint64(tb) | uint64(tb)<<32
	const abs, top = 0x7fffffff7fffffff, 0x8000000080000000
	var a, b uint64
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		x := uint64(math.Float32bits(s[0])) | uint64(math.Float32bits(s[1]))<<32
		y := uint64(math.Float32bits(s[2])) | uint64(math.Float32bits(s[3]))<<32
		a += ((x&abs | top) - t) & top >> 31
		b += ((y&abs | top) - t) & top >> 31
	}
	a += b
	kept := int(a&0xffffffff) + int(a>>32)
	for ; i < len(src); i++ {
		kept += int(^(math.Float32bits(src[i])&0x7fffffff - tb) >> 31)
	}
	return kept
}

// QuantizeZigIntoPCG is QuantizeZigInto's stochastic-rounding loop over a
// concrete PCG source, mirroring FilterQuantizeZigPCG.
func QuantizeZigIntoPCG(dst []uint32, src []float32, binW float64, pcg *rand.PCG) (maxZig uint32) {
	var peak uint32
	for i, v := range src {
		peak = max(peak, math.Float32bits(v)&^(1<<31))
		x := float64(v) / binW
		floor := math.Floor(x)
		l := int64(floor)
		if float64(pcg.Uint64()<<11>>11)/(1<<53) < x-floor {
			l++
		}
		z := zigZag64(l)
		dst[i] = z
		if z > maxZig {
			maxZig = z
		}
	}
	return checkFinite(maxZig, peak)
}

// PlaneCount returns the number of byte planes needed for the given maximum
// zig-zag code — the PlaneSplit sizing rule without materializing planes.
func PlaneCount(maxZig uint32) int {
	n := 0
	for maxZig != 0 {
		n++
		maxZig >>= 8
	}
	return n
}

// FillPlane extracts byte plane p (little-endian byte p of every zig-zag
// code) from zigs into dst. dst must have length len(zigs). It is the
// per-plane half of PlaneSplit, run against the fused kernels' zig-zag
// output so only one plane needs to be live at a time.
func FillPlane(dst []byte, zigs []uint32, p int) {
	shift := uint(8 * p)
	for i, z := range zigs {
		dst[i] = byte(z >> shift)
	}
}

// DequantizeZig converts one zig-zag code back to its value at bin width
// binW, matching DequantizeEB's arithmetic.
func DequantizeZig(z uint32, binW float64) float32 {
	return float32(float64(UnZigZag(z)) * binW)
}

// PackZigs serializes pre-zig-zagged codes with known maximum into the
// PackCodes wire format (count, 6-bit width, packed codes), running the bit
// writer over buf's storage so callers can pass a pooled buffer. The
// returned slice is the flushed stream; its backing array is buf's unless
// append had to grow it.
func PackZigs(buf []byte, zigs []uint32, maxZig uint32) []byte {
	width := uint(bits.Len32(maxZig)) // 0 for all-zero input
	var w bitstream.Writer
	w.ResetBuf(buf)
	w.WriteUvarint(uint64(len(zigs)))
	w.WriteBits(uint64(width), 6)
	for _, z := range zigs {
		w.WriteBits(uint64(z), width)
	}
	return w.Bytes()
}
