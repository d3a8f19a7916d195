package encoding

import "encoding/binary"

// Snappy is a from-scratch codec in the style of Google's Snappy: tag-byte
// framed literal runs and copies with varint-extended lengths, a greedy
// matcher with the characteristic "skip faster through incompressible data"
// probe stride. Same dictionary-matching class as nvCOMP's Snappy; Table 2
// shows it trading slightly against LZ4 on ratio and throughput.
type Snappy struct{}

const (
	snappyMinMatch = 4
	snappyHashLog  = 14
	snappyTagLit   = 0x00
	snappyTagCopy  = 0x01
)

// Name implements Codec.
func (Snappy) Name() string { return "Snappy" }

// EncodeAppend implements Codec.
func (Snappy) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	var table [1 << snappyHashLog]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	i := 0
	limit := len(src) - snappyMinMatch
	skipBits := uint(5) // probe stride doubles every 32 misses
	misses := 0
	for i <= limit {
		h := snappyHash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			misses++
			i += 1 + misses>>skipBits
			continue
		}
		misses = 0
		matchLen := snappyMinMatch
		for i+matchLen < len(src) && src[cand+matchLen] == src[i+matchLen] {
			matchLen++
		}
		if anchor < i {
			out = snappyEmitLiterals(out, src[anchor:i])
		}
		out = append(out, snappyTagCopy)
		out = putUvarint(out, uint64(matchLen))
		out = putUvarint(out, uint64(i-cand))
		i += matchLen
		anchor = i
	}
	if anchor < len(src) {
		out = snappyEmitLiterals(out, src[anchor:])
	}
	return out
}

func snappyHash(v uint32) uint32 {
	return (v * 0x9e3779b1) >> (32 - snappyHashLog)
}

func snappyEmitLiterals(out, lits []byte) []byte {
	out = append(out, snappyTagLit)
	out = putUvarint(out, uint64(len(lits)))
	return append(out, lits...)
}

// DecodeInto implements Codec.
func (Snappy) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "Snappy")
	if err != nil {
		return nil, err
	}
	n, pos := 0, 0 // bytes decoded, bytes read
	for n < len(dst) {
		if pos >= len(src) {
			return nil, corruptf("Snappy: truncated at output offset %d", n)
		}
		tag := src[pos]
		pos++
		switch tag {
		case snappyTagLit:
			length, consumed, err := getUvarint(src[pos:])
			if err != nil {
				return nil, err
			}
			pos += consumed
			if length > uint64(len(src)-pos) || length > uint64(len(dst)-n) {
				return nil, corruptf("Snappy: literal run of %d overruns", length)
			}
			n += copy(dst[n:], src[pos:pos+int(length)])
			pos += int(length)
		case snappyTagCopy:
			length, consumed, err := getUvarint(src[pos:])
			if err != nil {
				return nil, err
			}
			pos += consumed
			offset, consumed, err := getUvarint(src[pos:])
			if err != nil {
				return nil, err
			}
			pos += consumed
			if offset == 0 || offset > uint64(n) {
				return nil, corruptf("Snappy: offset %d at output size %d", offset, n)
			}
			if length > uint64(len(dst)-n) {
				return nil, corruptf("Snappy: copy of %d overflows output", length)
			}
			for k, end := n-int(offset), n+int(length); n < end; n, k = n+1, k+1 {
				dst[n] = dst[k]
			}
		default:
			return nil, corruptf("Snappy: unknown tag %d", tag)
		}
	}
	return dst, nil
}
