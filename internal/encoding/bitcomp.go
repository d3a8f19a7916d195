package encoding

import "compso/internal/bitstream"

// Bitcomp is the stand-in for nvCOMP's Bitcomp codec: block-wise bit-width
// truncation. Each block stores the maximum significant bit width of its
// bytes and packs every byte at that width. Like its namesake, it is a
// single cheap pass (the highest-throughput codec in Table 2) with a lower
// compression ratio than the entropy coders because it can only exploit
// leading-zero bits, not symbol-probability skew.
type Bitcomp struct{}

// bitcompBlock is the number of bytes sharing one width descriptor.
const bitcompBlock = 4096

// Name implements Codec.
func (Bitcomp) Name() string { return "Bitcomp" }

// EncodeAppend implements Codec.
func (Bitcomp) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	w := bitstream.NewWriter(len(src)/2 + 16)
	for start := 0; start < len(src); start += bitcompBlock {
		end := min(start+bitcompBlock, len(src))
		block := src[start:end]
		var maxV byte
		for _, b := range block {
			maxV |= b
		}
		width := uint(8)
		for width > 0 && maxV&(1<<(width-1)) == 0 {
			width--
		}
		w.WriteBits(uint64(width), 4)
		for _, b := range block {
			w.WriteBits(uint64(b), width)
		}
	}
	return append(out, w.Bytes()...)
}

// DecodeInto implements Codec.
func (Bitcomp) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "Bitcomp")
	if err != nil {
		return nil, err
	}
	r := bitstream.NewReader(src)
	for start := 0; start < len(dst); start += bitcompBlock {
		width64, err := r.ReadBits(4)
		if err != nil {
			return nil, corruptf("Bitcomp: truncated width at offset %d", start)
		}
		if width64 > 8 {
			return nil, corruptf("Bitcomp: invalid width %d", width64)
		}
		width := uint(width64)
		for i := start; i < min(start+bitcompBlock, len(dst)); i++ {
			v, err := r.ReadBits(width)
			if err != nil {
				return nil, corruptf("Bitcomp: truncated body at offset %d", i)
			}
			dst[i] = byte(v)
		}
	}
	return dst, nil
}
