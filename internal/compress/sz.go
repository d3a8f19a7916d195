package compress

import (
	"fmt"
	"math"

	"compso/internal/encoding"
	"compso/internal/pool"
	"compso/internal/quant"
)

// SZ implements the cuSZ baseline algorithm the paper compares against:
// 1-D Lorenzo prediction (each value predicted by its reconstructed
// predecessor), round-to-nearest quantization of the prediction residual
// under a range-relative error bound, and Huffman coding of the packed
// quantization codes (§2.4). RN's uniform error distribution is what costs
// it accuracy on K-FAC gradients relative to the SR-based compressors
// (§4.2, Table 6b).
type SZ struct {
	// RelErrorBound is the error bound relative to the value range, e.g.
	// 4e-3 means |error| <= 4e-3·(max−min). The paper evaluates 1e-1 and
	// 4e-3.
	RelErrorBound float64
}

// NewSZ returns an SZ compressor with the given range-relative error bound.
func NewSZ(relEB float64) *SZ { return &SZ{RelErrorBound: relEB} }

// Name implements Compressor.
func (s *SZ) Name() string { return fmt.Sprintf("SZ-%.0E", s.RelErrorBound) }

// absBound returns the absolute error bound, RelErrorBound times the value
// range, from the range scan both pipelines make; the scan rejects NaN and
// ±Inf, which have no range.
func (s *SZ) absBound(src []float32) (float64, error) {
	if s.RelErrorBound <= 0 {
		return 0, fmt.Errorf("compress: SZ error bound %g <= 0", s.RelErrorBound)
	}
	var minV, maxV float64
	for i, v := range src {
		if !finite(v) {
			return 0, errNonFinite("SZ")
		}
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
	return ebAbs, nil
}

// Compress implements Compressor. Fused single-pass rewrite: after the
// unavoidable range scan (the bound is range-relative), one kernel runs
// Lorenzo prediction + RN quantization + zig-zag into a pooled code vector,
// and the byte planes reuse one pooled buffer each, Huffman-appended into
// pooled scratch — byte-identical to the multi-pass ReferenceCompress.
func (s *SZ) Compress(src []float32) ([]byte, error) {
	ebAbs, err := s.absBound(src)
	if err != nil {
		return nil, err
	}
	n := len(src)

	// Lorenzo prediction against the *reconstructed* previous value keeps
	// the decoder in lockstep and the error bound tight per element; the
	// fused loop emits zig-zagged codes directly and tracks their maximum.
	zigs := pool.U32(n)
	var maxZig uint32
	prev := 0.0
	bin := 2 * ebAbs
	for i, v := range src {
		residual := float64(v) - prev
		c := int32(math.Round(residual / bin))
		prev += float64(float64(c) * bin)
		z := quant.ZigZag(c)
		zigs[i] = z
		if z > maxZig {
			maxZig = z
		}
	}
	// Byte-plane layout keeps the Huffman symbols byte-aligned (cuSZ's
	// codebook likewise works on byte-sized quant codes).
	nPlanes := quant.PlaneCount(maxZig)
	// Put scratchBuf, not scratch: EncodeAppend may grow the slice onto a
	// fresh heap array, and the arena must get its own buffer back.
	scratchBuf := pool.Bytes(n/2 + 64)
	scratch := scratchBuf[:0]
	plane := pool.Bytes(n)
	var ends [maxSections]int
	for p := 0; p < nPlanes; p++ {
		quant.FillPlane(plane, zigs, p)
		scratch = encoding.Huffman{}.EncodeAppend(scratch, plane)
		ends[p] = len(scratch)
	}
	pool.PutBytes(plane)
	pool.PutU32(zigs)

	var planes [maxSections][]byte
	prevEnd := 0
	for p := 0; p < nPlanes; p++ {
		planes[p] = scratch[prevEnd:ends[p]]
		prevEnd = ends[p]
	}
	out := make([]byte, 0, uvarintLen(uint64(n))+9+sectionsLen(planes[:nPlanes]...))
	out = putHeader(out, magicSZ, n)
	out = putFloat64(out, ebAbs)
	out = appendSections(out, planes[:nPlanes]...)
	pool.PutBytes(scratchBuf)
	return out, nil
}

// Decompress implements Compressor. Planes decode into pooled scratch and
// one fused loop joins them, undoes the zig-zag and integrates the Lorenzo
// prediction directly into the output.
func (s *SZ) Decompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicSZ, "SZ")
	if err != nil {
		return nil, err
	}
	ebAbs, rest, err := getFloat64(rest, "SZ")
	if err != nil {
		return nil, err
	}
	sections, nPlanes, err := readSections(rest, "SZ")
	if err != nil {
		return nil, err
	}
	var scratches [][]byte
	defer func() {
		for _, b := range scratches {
			pool.PutBytes(b)
		}
	}()
	var planes [maxSections][]byte
	for p := 0; p < nPlanes; p++ {
		buf := pool.Bytes(n)
		scratches = append(scratches, buf)
		planes[p], err = encoding.Huffman{}.DecodeInto(buf[:0:len(buf)], sections[p])
		if err != nil {
			return nil, fmt.Errorf("%w: SZ plane %d: %v", ErrCorrupt, p, err)
		}
		if len(planes[p]) != n {
			return nil, fmt.Errorf("%w: SZ: plane %d has %d bytes, want %d", ErrCorrupt, p, len(planes[p]), n)
		}
	}
	out := make([]float32, n)
	prev := 0.0
	bin := 2 * ebAbs
	for i := 0; i < n; i++ {
		var z uint32
		for p := 0; p < nPlanes; p++ {
			z |= uint32(planes[p][i]) << (8 * p)
		}
		prev += float64(float64(quant.UnZigZag(z)) * bin)
		out[i] = float32(prev)
	}
	return out, nil
}
