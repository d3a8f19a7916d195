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
// — or the same ErrOutOfRange — from either entry point.
func (c *COMPSO) ReferenceCompress(src []float32) ([]byte, error) {
	b, err := c.header(len(src))
	if err != nil {
		return nil, err
	}
	var bitmap []byte
	kept := src
	if c.FilterEnabled {
		bitmap, kept = filter.Apply(src, c.EBFilter)
	}
	c.LastFilterTotal = len(src)
	c.LastFilterKept = len(kept)
	codes := quant.QuantizeEB(kept, c.EBQuant, c.Rounding, c.rng)
	if !allFinite(kept) {
		return nil, errNonFinite("COMPSO")
	}
	b.kept = len(kept)
	b.bitmap = b.codec.EncodeAppend(nil, bitmap)
	if c.BitPacked {
		// §4.3 ablation: dense bit packing in a single plane-like section.
		b.sections[0] = b.codec.EncodeAppend(nil, quant.PackCodes(codes))
		b.nSections = 1
	} else {
		// Byte-plane layout: entropy coders get byte-aligned symbol streams.
		planes := quant.PlaneSplit(codes)
		for p, plane := range planes {
			b.sections[p] = b.codec.EncodeAppend(nil, plane)
		}
		b.nSections = len(planes)
	}
	out := b.appendTo(nil)
	c.observe(len(src), len(out))
	return out, nil
}

// ReferenceDecompress is the multi-pass COMPSO decompression pipeline:
// decode sections, join planes (or unpack the dense stream), dequantize,
// then restore the filtered zeros — each stage through its own buffer.
func (c *COMPSO) ReferenceDecompress(data []byte) ([]float32, error) {
	b, err := parseCOMPSO(data)
	if err != nil {
		return nil, err
	}
	n, cdc := b.n, b.codec
	var bitmap []byte
	if b.filter {
		bitmap, err = cdc.DecodeInto(make([]byte, 0, (n+7)/8), b.bitmap)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO bitmap: %v", ErrCorrupt, err)
		}
	}
	var codes []int32
	if b.bitPacked {
		packed, err := cdc.DecodeInto(make([]byte, 0, packedLen(b.kept)), b.sections[0])
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO packed: %v", ErrCorrupt, err)
		}
		codes, err = quant.UnpackCodes(packed)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
		if len(codes) != b.kept {
			return nil, fmt.Errorf("%w: COMPSO: %d codes for %d kept", ErrCorrupt, len(codes), b.kept)
		}
	} else {
		planes := make([][]byte, b.nSections)
		for p := range planes {
			planes[p], err = cdc.DecodeInto(make([]byte, 0, b.kept), b.sections[p])
			if err != nil {
				return nil, fmt.Errorf("%w: COMPSO plane %d: %v", ErrCorrupt, p, err)
			}
		}
		codes, err = quant.PlaneJoin(planes, b.kept)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
	}
	kept := quant.DequantizeEB(codes, b.ebq, b.rounding)
	if !b.filter {
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
	ebAbs, err := s.absBound(src)
	if err != nil {
		return nil, err
	}
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
	for i, plane := range planes {
		planes[i] = encoding.Huffman{}.EncodeAppend(nil, plane)
	}
	out := putHeader(nil, magicSZ, len(src))
	out = putFloat64(out, ebAbs)
	return appendSections(out, planes...), nil
}

// ReferenceCompress is the multi-pass QSGD pipeline: materialize the level
// vector, then gamma-code it. It advances the same RNG stream as Compress.
func (q *QSGD) ReferenceCompress(src []float32) ([]byte, error) {
	if !allFinite(src) {
		return nil, errNonFinite("QSGD")
	}
	levels, scale := quant.QuantizeFixed(src, q.Bits, quant.SR, q.rng)
	out := putHeader(nil, magicQSGD, len(src))
	out = putFloat64(out, scale)
	w := bitstream.NewWriter(len(src) * q.Bits / 8)
	for _, l := range levels {
		encoding.EliasGammaEncode(w, uint64(quant.ZigZag(l))+1)
	}
	return append(out, w.Bytes()...), nil
}
