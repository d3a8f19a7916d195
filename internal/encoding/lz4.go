package encoding

import "encoding/binary"

// LZ4 is a from-scratch implementation of the LZ4 block format's structure
// (token byte with literal/match nibbles, 2-byte offsets, 255-run length
// extensions) using a greedy single-probe hash table — the same
// dictionary-matching class as nvCOMP's LZ4: fast, but a lower compression
// ratio than the entropy coders on gradient data because repeated 4-byte
// patterns are rare in packed quantized values (§5.2).
type LZ4 struct{}

const (
	lz4MinMatch   = 4
	lz4HashLog    = 14
	lz4MaxOffset  = 65535
	lz4LastLits   = 5 // final bytes always emitted as literals
	lz4TokenLit   = 15
	lz4TokenMatch = 15
)

// Name implements Codec.
func (LZ4) Name() string { return "LZ4" }

// EncodeAppend implements Codec.
func (LZ4) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	var table [1 << lz4HashLog]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0 // start of pending literal run
	i := 0
	limit := len(src) - lz4LastLits
	for i < limit {
		h := lz4Hash(binary.LittleEndian.Uint32(src[i:]))
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || i-cand > lz4MaxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != binary.LittleEndian.Uint32(src[i:]) {
			i++
			continue
		}
		// Extend the match forward.
		matchLen := lz4MinMatch
		maxLen := len(src) - i - (lz4LastLits - lz4MinMatch)
		for matchLen < maxLen && src[cand+matchLen] == src[i+matchLen] {
			matchLen++
		}
		out = lz4EmitSequence(out, src[anchor:i], i-cand, matchLen)
		i += matchLen
		anchor = i
	}
	// Trailing literals with a match length of 0 (encoded as token match
	// nibble 0 and offset 0, which the decoder treats as end-of-stream).
	out = lz4EmitSequence(out, src[anchor:], 0, 0)
	return out
}

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

// lz4EmitSequence appends one LZ4 sequence: token, literal length
// extension, literals, offset, match length extension. A zero offset marks
// the final literal-only sequence.
func lz4EmitSequence(out []byte, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	token := byte(0)
	if litLen >= lz4TokenLit {
		token = lz4TokenLit << 4
	} else {
		token = byte(litLen) << 4
	}
	mlCode := 0
	if offset > 0 {
		mlCode = matchLen - lz4MinMatch
		if mlCode >= lz4TokenMatch {
			token |= lz4TokenMatch
		} else {
			token |= byte(mlCode)
		}
	}
	out = append(out, token)
	if litLen >= lz4TokenLit {
		out = lz4EmitLenExt(out, litLen-lz4TokenLit)
	}
	out = append(out, literals...)
	out = append(out, byte(offset), byte(offset>>8))
	if offset > 0 && mlCode >= lz4TokenMatch {
		out = lz4EmitLenExt(out, mlCode-lz4TokenMatch)
	}
	return out
}

func lz4EmitLenExt(out []byte, v int) []byte {
	for v >= 255 {
		out = append(out, 255)
		v -= 255
	}
	return append(out, byte(v))
}

// DecodeInto implements Codec.
func (LZ4) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "LZ4")
	if err != nil || len(dst) == 0 {
		return dst, err
	}
	n, pos := 0, 0 // bytes decoded, bytes read
	for {
		if pos >= len(src) {
			return nil, corruptf("LZ4: missing end-of-stream sequence")
		}
		token := src[pos]
		pos++
		litLen := int(token >> 4)
		if litLen == lz4TokenLit {
			ext, newPos, err := lz4ReadLenExt(src, pos)
			if err != nil {
				return nil, err
			}
			litLen += ext
			pos = newPos
		}
		if litLen > len(src)-pos || litLen > len(dst)-n {
			return nil, corruptf("LZ4: literal run of %d overruns", litLen)
		}
		n += copy(dst[n:], src[pos:pos+litLen])
		pos += litLen
		if pos+2 > len(src) {
			return nil, corruptf("LZ4: truncated offset")
		}
		offset := int(src[pos]) | int(src[pos+1])<<8
		pos += 2
		if offset == 0 {
			// Final sequence.
			if n != len(dst) {
				return nil, corruptf("LZ4: decoded %d bytes, want %d", n, len(dst))
			}
			return dst, nil
		}
		matchLen := int(token&0xf) + lz4MinMatch
		if token&0xf == lz4TokenMatch {
			ext, newPos, err := lz4ReadLenExt(src, pos)
			if err != nil {
				return nil, err
			}
			matchLen += ext
			pos = newPos
		}
		if offset > n {
			return nil, corruptf("LZ4: offset %d exceeds output size %d", offset, n)
		}
		if matchLen > len(dst)-n {
			return nil, corruptf("LZ4: match overflows output")
		}
		// Byte-wise copy: matches may overlap their own output.
		for k := n - offset; matchLen > 0; matchLen-- {
			dst[n] = dst[k]
			n, k = n+1, k+1
		}
	}
}

func lz4ReadLenExt(src []byte, pos int) (int, int, error) {
	ext := 0
	for {
		if pos >= len(src) {
			return 0, 0, corruptf("LZ4: truncated length extension")
		}
		b := src[pos]
		pos++
		ext += int(b)
		if b != 255 {
			return ext, pos, nil
		}
		if uint64(ext) > 1<<31 { // uint64: int may be 32 bits
			return 0, 0, corruptf("LZ4: length extension overflow")
		}
	}
}
