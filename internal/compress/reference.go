package compress

import (
	"fmt"
	"math"

	"compso/internal/bitstream"
	"compso/internal/encoding"
	"compso/internal/filter"
	"compso/internal/quant"
)

// This file preserves the original multi-pass compressor pipelines exactly
// as they shipped before the kernel-fusion rewrite. They are the repo's
// analogue of the paper's pre-fusion GPU implementation in Figure 8's
// ablation: every stage (filter scan, quantize, zig-zag, plane split,
// encode) materializes its intermediate buffer. The fused single-pass
// implementations in compso.go/sz.go/qsgd.go must produce byte-identical
// blobs from identical state — the equivalence tests diff the two paths, and
// the root package's Benchmark…Reference pairs report fused-vs-reference
// throughput.

// ReferenceCompress is the multi-pass COMPSO compression pipeline. It uses
// (and advances) the same stochastic-rounding RNG stream as Compress, so a
// given (configuration, RNG state, input) triple must yield the same bytes
// from either entry point.
func (c *COMPSO) ReferenceCompress(src []float32) ([]byte, error) {
	if c.EBQuant <= 0 {
		return nil, fmt.Errorf("compress: COMPSO quantizer bound %g <= 0", c.EBQuant)
	}
	if c.FilterEnabled && c.EBFilter <= 0 {
		return nil, fmt.Errorf("compress: COMPSO filter bound %g <= 0", c.EBFilter)
	}
	codecID, err := c.codecID()
	if err != nil {
		return nil, err
	}

	var bitmap []byte
	kept := src
	filterFlag := byte(0)
	if c.FilterEnabled {
		bitmap, kept = filter.Apply(src, c.EBFilter)
		filterFlag = 1
	}
	c.LastFilterTotal = len(src)
	c.LastFilterKept = len(kept)
	codes := quant.QuantizeEB(kept, c.EBQuant, c.Rounding, c.rng)

	cdc := c.codec()
	encBitmap := cdc.Encode(bitmap)

	// Options byte: bit 0 = bit-packed codes, bits 1-2 = rounding mode.
	options := byte(c.Rounding) << 1
	if c.BitPacked {
		options |= 1
	}

	out := putHeader(nil, magicCOMPSO, len(src))
	out = append(out, filterFlag, codecID, options)
	out = putFloat64(out, c.EBFilter)
	out = putFloat64(out, c.EBQuant)
	out = putHeader(out, 0xBB, len(kept))      // kept-value count
	out = putHeader(out, 0xBB, len(encBitmap)) // bitmap section length
	out = append(out, encBitmap...)
	if c.BitPacked {
		// §4.3 ablation: dense bit packing in a single plane-like section.
		enc := cdc.Encode(quant.PackCodes(codes))
		out = append(out, byte(1))
		out = putHeader(out, 0xBB, len(enc))
		out = append(out, enc...)
		c.observe(len(src), len(out))
		return out, nil
	}
	// Byte-plane layout: entropy coders get byte-aligned symbol streams.
	planes := quant.PlaneSplit(codes)
	out = append(out, byte(len(planes)))
	for _, plane := range planes {
		enc := cdc.Encode(plane)
		out = putHeader(out, 0xBB, len(enc))
		out = append(out, enc...)
	}
	c.observe(len(src), len(out))
	return out, nil
}

// ReferenceDecompress is the multi-pass COMPSO decompression pipeline:
// decode sections, join planes (or unpack the dense stream), dequantize,
// then restore the filtered zeros — each stage through its own buffer.
func (c *COMPSO) ReferenceDecompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicCOMPSO, "COMPSO")
	if err != nil {
		return nil, err
	}
	if len(rest) < 3 {
		return nil, fmt.Errorf("%w: COMPSO: truncated flags", ErrCorrupt)
	}
	filterFlag, codecID, options := rest[0], rest[1], rest[2]
	rest = rest[3:]
	bitPacked := options&1 != 0
	rounding := quant.Mode(options >> 1)
	if rounding > quant.P05 {
		return nil, fmt.Errorf("%w: COMPSO: rounding mode %d", ErrCorrupt, rounding)
	}
	_, rest, err = getFloat64(rest, "COMPSO ebf")
	if err != nil {
		return nil, err
	}
	ebq, rest, err := getFloat64(rest, "COMPSO ebq")
	if err != nil {
		return nil, err
	}
	if ebq <= 0 {
		return nil, fmt.Errorf("%w: COMPSO: quantizer bound %g", ErrCorrupt, ebq)
	}
	names := encoding.Names()
	if int(codecID) >= len(names) {
		return nil, fmt.Errorf("%w: COMPSO: codec id %d", ErrCorrupt, codecID)
	}
	cdc, err := encoding.ByName(names[codecID])
	if err != nil {
		return nil, err
	}
	keptCount, rest, err := getHeader(rest, 0xBB, "COMPSO kept count")
	if err != nil {
		return nil, err
	}
	if keptCount > n {
		return nil, fmt.Errorf("%w: COMPSO: kept count %d > %d", ErrCorrupt, keptCount, n)
	}
	bitmapLen, rest, err := getHeader(rest, 0xBB, "COMPSO bitmap section")
	if err != nil {
		return nil, err
	}
	if bitmapLen > len(rest) {
		return nil, fmt.Errorf("%w: COMPSO: bitmap section of %d overruns %d", ErrCorrupt, bitmapLen, len(rest))
	}
	var bitmap []byte
	if filterFlag != 0 {
		bitmap, err = cdc.Decode(rest[:bitmapLen])
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO bitmap: %v", ErrCorrupt, err)
		}
	}
	rest = rest[bitmapLen:]
	if len(rest) < 1 {
		return nil, fmt.Errorf("%w: COMPSO: truncated plane count", ErrCorrupt)
	}
	nPlanes := int(rest[0])
	rest = rest[1:]
	if nPlanes > 4 {
		return nil, fmt.Errorf("%w: COMPSO: %d planes", ErrCorrupt, nPlanes)
	}
	var codes []int32
	if bitPacked {
		if nPlanes != 1 {
			return nil, fmt.Errorf("%w: COMPSO: bit-packed stream with %d sections", ErrCorrupt, nPlanes)
		}
		secLen, after, err := getHeader(rest, 0xBB, "COMPSO packed section")
		if err != nil {
			return nil, err
		}
		if secLen > len(after) {
			return nil, fmt.Errorf("%w: COMPSO: packed section overruns", ErrCorrupt)
		}
		packed, err := cdc.Decode(after[:secLen])
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO packed: %v", ErrCorrupt, err)
		}
		codes, err = quant.UnpackCodes(packed)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
		if len(codes) != keptCount {
			return nil, fmt.Errorf("%w: COMPSO: %d codes for %d kept", ErrCorrupt, len(codes), keptCount)
		}
	} else {
		planes := make([][]byte, nPlanes)
		for p := range planes {
			planeLen, after, err := getHeader(rest, 0xBB, "COMPSO plane")
			if err != nil {
				return nil, err
			}
			if planeLen > len(after) {
				return nil, fmt.Errorf("%w: COMPSO: plane %d overruns", ErrCorrupt, p)
			}
			planes[p], err = cdc.Decode(after[:planeLen])
			if err != nil {
				return nil, fmt.Errorf("%w: COMPSO plane %d: %v", ErrCorrupt, p, err)
			}
			rest = after[planeLen:]
		}
		codes, err = quant.PlaneJoin(planes, keptCount)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
	}
	kept := quant.DequantizeEB(codes, ebq, rounding)
	if filterFlag == 0 {
		if len(kept) != n {
			return nil, fmt.Errorf("%w: COMPSO: %d values for %d elements", ErrCorrupt, len(kept), n)
		}
		return kept, nil
	}
	out, err := filter.Restore(bitmap, n, kept)
	if err != nil {
		return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
	}
	return out, nil
}

// ReferenceCompress is the multi-pass SZ pipeline (predict, quantize, plane
// split, Huffman), materializing the full code vector and every plane.
func (s *SZ) ReferenceCompress(src []float32) ([]byte, error) {
	if s.RelErrorBound <= 0 {
		return nil, fmt.Errorf("compress: SZ error bound %g <= 0", s.RelErrorBound)
	}
	var minV, maxV float64
	for i, v := range src {
		f := float64(v)
		if i == 0 || f < minV {
			minV = f
		}
		if i == 0 || f > maxV {
			maxV = f
		}
	}
	ebAbs := s.RelErrorBound * (maxV - minV)
	if ebAbs == 0 {
		ebAbs = s.RelErrorBound // constant input: any tiny bound works
	}
	out := putHeader(nil, magicSZ, len(src))
	out = putFloat64(out, ebAbs)

	codes := make([]int32, len(src))
	prev := 0.0
	bin := 2 * ebAbs
	for i, v := range src {
		residual := float64(v) - prev
		c := int32(math.Round(residual / bin))
		codes[i] = c
		prev += float64(c) * bin
	}
	planes := quant.PlaneSplit(codes)
	out = append(out, byte(len(planes)))
	for _, plane := range planes {
		enc := encoding.Huffman{}.Encode(plane)
		out = putHeader(out, 0xBB, len(enc))
		out = append(out, enc...)
	}
	return out, nil
}

// ReferenceCompress is the multi-pass QSGD pipeline: materialize the level
// vector, then gamma-code it. It advances the same RNG stream as Compress.
func (q *QSGD) ReferenceCompress(src []float32) ([]byte, error) {
	levels, scale := quant.QuantizeFixed(src, q.Bits, quant.SR, q.rng)
	out := putHeader(nil, magicQSGD, len(src))
	out = putFloat64(out, scale)
	w := bitstream.NewWriter(len(src) * q.Bits / 8)
	for _, l := range levels {
		encoding.EliasGammaEncode(w, uint64(quant.ZigZag(l))+1)
	}
	return append(out, w.Bytes()...), nil
}
