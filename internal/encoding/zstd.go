package encoding

import (
	"encoding/binary"

	"compso/internal/pool"
)

// Zstd is a from-scratch codec in the style of Zstandard: an LZ77 stage
// with hash-chain match search (deeper than LZ4's single probe, hence the
// better parse) followed by entropy coding of the literal and sequence
// streams with rANS (standing in for Zstandard's FSE/tANS). Like nvCOMP's
// Zstd in Table 2, it achieves the highest compression ratio of the codec
// set at the lowest throughput — the search depth and the extra entropy
// pass are exactly where the time goes.
type Zstd struct{}

const (
	zstdMinMatch  = 4
	zstdHashLog   = 15
	zstdChainLog  = 14
	zstdMaxChain  = 16 // probes per position
	zstdMaxOffset = 1 << 17
)

// Name implements Codec.
func (Zstd) Name() string { return "Zstd" }

// EncodeAppend implements Codec.
func (Zstd) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}

	// LZ parse with hash chains. Three output streams: raw literals, and a
	// byte-serialized sequence stream (litLen, matchLen, offset varints).
	literals := make([]byte, 0, len(src)/2)
	seqs := make([]byte, 0, len(src)/8)
	nSeq := 0

	var head [1 << zstdHashLog]int32
	for i := range head {
		head[i] = -1
	}
	chain := make([]int32, len(src))
	anchor := 0
	i := 0
	limit := len(src) - zstdMinMatch
	for i <= limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := zstdHash(v)
		bestLen, bestPos := 0, -1
		cand := int(head[h])
		for probe := 0; probe < zstdMaxChain && cand >= 0 && i-cand <= zstdMaxOffset; probe++ {
			if binary.LittleEndian.Uint32(src[cand:]) == v {
				l := zstdMinMatch
				for i+l < len(src) && src[cand+l] == src[i+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestPos = l, cand
				}
			}
			cand = int(chain[cand])
		}
		chain[i] = head[h]
		head[h] = int32(i)
		if bestLen < zstdMinMatch {
			i++
			continue
		}
		literals = append(literals, src[anchor:i]...)
		seqs = putUvarint(seqs, uint64(i-anchor))
		seqs = putUvarint(seqs, uint64(bestLen))
		seqs = putUvarint(seqs, uint64(i-bestPos))
		nSeq++
		// Insert interior match positions into the chains so later matches
		// can reference them (bounded to keep the parse near-linear).
		end := i + bestLen
		for j := i + 1; j < end && j <= limit && j < i+32; j++ {
			hj := zstdHash(binary.LittleEndian.Uint32(src[j:]))
			chain[j] = head[hj]
			head[hj] = int32(j)
		}
		i = end
		anchor = i
	}
	literals = append(literals, src[anchor:]...)

	// Entropy-code both streams with rANS.
	encLits := ANS{}.EncodeAppend(nil, literals)
	out = putUvarint(out, uint64(nSeq))
	out = putUvarint(out, uint64(len(encLits)))
	out = append(out, encLits...)
	return ANS{}.EncodeAppend(out, seqs)
}

func zstdHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - zstdHashLog)
}

// DecodeInto implements Codec. The literal and sequence streams decode into
// pooled scratch bounded by the output: there are no more literals than
// output bytes, and no more than n/zstdMinMatch sequences of three varints.
func (Zstd) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "Zstd")
	if err != nil || len(dst) == 0 {
		return dst, err
	}
	nSeq, consumed, err := getUvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[consumed:]
	if nSeq > uint64(len(dst)/zstdMinMatch) {
		return nil, corruptf("Zstd: %d sequences for %d bytes", nSeq, len(dst))
	}
	litsLen, consumed, err := getUvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[consumed:]
	if litsLen > uint64(len(src)) {
		return nil, corruptf("Zstd: literal stream length %d overruns input", litsLen)
	}
	litBuf := pool.Bytes(len(dst))
	defer pool.PutBytes(litBuf)
	literals, err := ANS{}.DecodeInto(litBuf[:0:len(litBuf)], src[:litsLen])
	if err != nil {
		return nil, corruptf("Zstd literals: %v", err)
	}
	seqBuf := pool.Bytes(3 * binary.MaxVarintLen64 * int(nSeq))
	defer pool.PutBytes(seqBuf)
	seqs, err := ANS{}.DecodeInto(seqBuf[:0:len(seqBuf)], src[litsLen:])
	if err != nil {
		return nil, corruptf("Zstd sequences: %v", err)
	}

	n, litPos, seqPos := 0, 0, 0 // bytes decoded, literals used, sequence bytes read
	for s := uint64(0); s < nSeq; s++ {
		litLen, c1, err := getUvarint(seqs[seqPos:])
		if err != nil {
			return nil, err
		}
		seqPos += c1
		matchLen, c2, err := getUvarint(seqs[seqPos:])
		if err != nil {
			return nil, err
		}
		seqPos += c2
		offset, c3, err := getUvarint(seqs[seqPos:])
		if err != nil {
			return nil, err
		}
		seqPos += c3
		if litLen > uint64(len(literals)-litPos) || litLen > uint64(len(dst)-n) {
			return nil, corruptf("Zstd: literal overrun in sequence %d", s)
		}
		n += copy(dst[n:], literals[litPos:litPos+int(litLen)])
		litPos += int(litLen)
		if offset == 0 || offset > uint64(n) || matchLen < zstdMinMatch {
			return nil, corruptf("Zstd: bad sequence %d (off=%d len=%d)", s, offset, matchLen)
		}
		if matchLen > uint64(len(dst)-n) {
			return nil, corruptf("Zstd: match overflows output in sequence %d", s)
		}
		for k, end := n-int(offset), n+int(matchLen); n < end; n, k = n+1, k+1 {
			dst[n] = dst[k]
		}
	}
	if len(literals)-litPos != len(dst)-n {
		return nil, corruptf("Zstd: decoded %d bytes, want %d", n+len(literals)-litPos, len(dst))
	}
	copy(dst[n:], literals[litPos:])
	return dst, nil
}
