package encoding

import (
	"encoding/binary"
	"math/bits"

	"compso/internal/pool"
)

// rANS (range asymmetric numeral system) entropy coder, the stand-in for
// nvCOMP's ANS codec. Order-0 byte model with a 12-bit normalized frequency
// table and 32-bit states — the construction of Duda's rANS as popularized
// by ryg_rans and the massively parallel GPU ANS decoder the paper cites
// [54]. ANS is the encoder COMPSO ends up selecting for both CNN and
// transformer gradient streams because it pairs a high compression ratio
// (entropy coding exploits the non-uniform quantized gradient distribution)
// with the highest throughput of the entropy coders.
//
// A stream is written in one of two layouts, chosen from its length alone
// (DESIGN.md "COMPSO compressed format" gives both byte by byte):
//
//	layout 1  uvarint n | table | state u32 | body bytes
//	layout 2  uvarint n | 0x00 | lanes=4 | table | 4 × state u32 | body u16 words
//
// Layout 1 is one state renormalized a byte at a time above 2^23: every
// symbol waits on the one before it (table load, multiply, data-dependent
// renormalization branch). Layout 2 deals symbol i to state i mod 4, so four
// such chains run side by side in the core, and renormalizes 16 bits at a
// time above 2^16, so a symbol moves at most one word and the step needs no
// branch. Its table is the same; the 0x00 in the place of layout 1's
// distinct-symbol count (1..256 there) is what tells the two apart, and what
// makes a decoder that knows only layout 1 reject it.

const (
	ansProbBits  = 12
	ansProbScale = 1 << ansProbBits // 4096
	ansLowBound  = 1 << 23          // layout 1's renormalization lower bound

	ansLanes     = 4
	ansLaneBound = 1 << 16 // layout 2's renormalization lower bound

	// ansInterleaveMin is the shortest stream written in layout 2. What sets
	// it is size, not speed: the layout costs 14 bytes (escape, lane count,
	// three more states), 2 % of a 1 KiB stream compressed 3:2 and under
	// 0.1 % from 32 KiB on, and every stream below it keeps the bytes it had
	// when layout 1 was the only one, which the train goldens pin (their
	// longest stream is 21 033 bytes). The interleaved loops are the faster
	// ones from 1 KiB up (DESIGN.md has the table); the streams of a 4 MB
	// tensor, where the time is, are 128 KiB and more.
	ansInterleaveMin = 32 << 10
)

// ANS is the rANS codec. The zero value is ready to use.
type ANS struct{}

// Name implements Codec.
func (ANS) Name() string { return "ANS" }

// Encode implements Codec.
func (a ANS) Encode(src []byte) []byte {
	return a.EncodeAppend(make([]byte, 0, len(src)/2+24), src)
}

// EncodeAppend implements AppendEncoder. The body is built back to front in
// a buffer from the arena and appended in one piece, so steady-state encodes
// touch the allocator only when dst must grow.
func (ANS) EncodeAppend(dst, src []byte) []byte {
	return ansEncodeAppend(dst, src, len(src) >= ansInterleaveMin)
}

// ansEncodeAppend appends src in layout 2 when interleave is set, else in
// layout 1. Both decode at any length; the tests use that to put short
// streams through layout 2.
func ansEncodeAppend(dst, src []byte, interleave bool) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	if interleave {
		out = append(out, 0, ansLanes)
	}

	// The frequency table as (distinct count, then symbol+freq pairs);
	// gradient streams use few distinct symbols so this is compact.
	freq := normalizedFreqs(src)
	distinct := 0
	for _, f := range freq {
		if f > 0 {
			distinct++
		}
	}
	out = putUvarint(out, uint64(distinct))
	for s, f := range freq {
		if f > 0 {
			out = append(out, byte(s))
			out = putUvarint(out, uint64(f))
		}
	}

	// rANS encodes in reverse so the decoder emits in forward order. Body
	// bytes are written back to front into a pooled buffer sized for the
	// worst case, so they land already in stream order: at most 2 bytes a
	// symbol in either layout (layout 1's state stays below 2^31 and
	// renormalizes down past 2^15 < xMax; layout 2 moves at most one word),
	// plus the 8 bytes layout 2 wants below the words it keeps.
	body := pool.Bytes(2*len(src) + 8)
	var tab [256]ansEncSym
	if interleave {
		buildEncTable(&tab, &freq, 32-ansProbBits)
		out = ansEncodeInterleaved(out, body, src, &tab)
	} else {
		buildEncTable(&tab, &freq, 31-ansProbBits)
		out = ansEncodeSerial(out, body, src, &tab)
	}
	pool.PutBytes(body)
	return out
}

// ansEncSym is what encoding one symbol of frequency f starting at cum needs.
// The state update x → (x/f)<<12 + x%f + cum is computed as
// x + cum + (x/f)·(4096−f), and x/f as one widening multiply by
// rcp = 2^44/f + 1: exact floor division for every f <= ansProbScale and
// x < f·2^20 <= 2^32 (Granlund-Montgomery), which covers both layouts'
// states after renormalization and which TestANSReciprocalExact verifies.
type ansEncSym struct {
	rcp  uint64
	xTop uint32 // the largest state that absorbs the symbol without renormalizing
	cmpl uint16 // ansProbScale - f
	cum  uint16
}

// buildEncTable fills tab for the symbols present in freq. A state may grow
// to f<<shift − 1 before it must shed bits to absorb a symbol of frequency f:
// shift = 19 for layout 1 ((ansLowBound>>12)<<8) and 20 for layout 2
// ((ansLaneBound>>12)<<16), where f = 4096 reaches 2^32 − 1, every state.
func buildEncTable(tab *[256]ansEncSym, freq *[256]uint32, shift uint) {
	var cum uint32
	for s, f := range freq {
		if f == 0 {
			continue
		}
		tab[s] = ansEncSym{
			rcp:  (1<<44)/uint64(f) + 1,
			xTop: uint32(uint64(f)<<shift - 1),
			cmpl: uint16(ansProbScale - f),
			cum:  uint16(cum),
		}
		cum += f
	}
}

// put absorbs e's symbol into the renormalized state x.
func (e *ansEncSym) put(x uint32) uint32 {
	q, _ := bits.Mul64(uint64(x)<<20, e.rcp) // (x·rcp)>>44 = x / f
	return x + uint32(e.cum) + uint32(q)*uint32(e.cmpl)
}

// ansEncodeSerial appends layout 1's state and body for src.
func ansEncodeSerial(out, body, src []byte, tab *[256]ansEncSym) []byte {
	idx := len(body)
	x := uint32(ansLowBound)
	for i := len(src) - 1; i >= 0; i-- {
		e := &tab[src[i]]
		for x > e.xTop {
			idx--
			body[idx] = byte(x)
			x >>= 8
		}
		x = e.put(x)
	}
	out = binary.LittleEndian.AppendUint32(out, x)
	return append(out, body[idx:]...)
}

// ansEncodeInterleaved appends layout 2's four states and shared body. The
// lanes are visited in the mirror image of the decoder's order — symbols
// last to first, so lane 3 before lane 0 within a group of four — and every
// word is written below the one before it, so the decoder, going forward,
// finds each word at the moment the lane that shed it wants it back.
func ansEncodeInterleaved(out, body, src []byte, tab *[256]ansEncSym) []byte {
	idx := len(body)
	x := [ansLanes]uint32{ansLaneBound, ansLaneBound, ansLaneBound, ansLaneBound}

	// The 0-3 symbols past the last whole group, one at a time.
	whole := len(src) &^ (ansLanes - 1)
	for i := len(src) - 1; i >= whole; i-- {
		e := &tab[src[i]]
		xi := x[i&(ansLanes-1)]
		if xi > e.xTop {
			idx -= 2
			binary.LittleEndian.PutUint16(body[idx:], uint16(xi))
			xi >>= 16
		}
		x[i&(ansLanes-1)] = e.put(xi)
	}

	// Whole groups: one 32-bit load brings the four symbols, and one bounds
	// check buys the eight bytes below idx, into which each lane writes its
	// low word whether or not it sheds it (shed). A word that was not shed is
	// overwritten by the next lane's, or by the next group's.
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for i := whole - ansLanes; i >= 0; i -= ansLanes {
		v := binary.LittleEndian.Uint32(src[i:])
		w := (*[8]byte)(body[idx-8 : idx])
		at := uint(6)
		e := &tab[v>>24]
		x3, at = e.shed(x3, w, at)
		x3 = e.put(x3)
		e = &tab[byte(v>>16)]
		x2, at = e.shed(x2, w, at)
		x2 = e.put(x2)
		e = &tab[byte(v>>8)]
		x1, at = e.shed(x1, w, at)
		x1 = e.put(x1)
		e = &tab[byte(v)]
		x0, at = e.shed(x0, w, at)
		x0 = e.put(x0)
		idx -= int(6 - at)
	}

	out = binary.LittleEndian.AppendUint32(out, x0)
	out = binary.LittleEndian.AppendUint32(out, x1)
	out = binary.LittleEndian.AppendUint32(out, x2)
	out = binary.LittleEndian.AppendUint32(out, x3)
	return append(out, body[idx:]...)
}

// shed renormalizes x ahead of absorbing e's symbol without a branch: x's
// low word is written at w[at:], below the words w already holds, and at
// moves down past it only when x is above e.xTop. (After a fourth word at is
// "-2"; the mask keeps the compiler from checking an index it cannot bound.)
func (e *ansEncSym) shed(x uint32, w *[8]byte, at uint) (uint32, uint) {
	w[at&6], w[at&6+1] = byte(x), byte(x>>8)
	over := uint32((int64(e.xTop) - int64(x)) >> 63) // all ones when x > xTop
	return x >> (over & 16), at - uint(over&2)
}

// Decode implements Codec.
func (a ANS) Decode(src []byte) ([]byte, error) {
	return a.DecodeInto(nil, src)
}

// DecodeInto implements IntoDecoder.
func (ANS) DecodeInto(scratch, src []byte) ([]byte, error) {
	n, consumed, err := getUvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[consumed:]
	if n == 0 {
		return []byte{}, nil
	}
	if n > 1<<33 {
		return nil, corruptf("ANS: implausible length %d", n)
	}

	distinct, consumed, err := getUvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[consumed:]
	interleaved := distinct == 0
	if interleaved {
		if len(src) < 1 || src[0] != ansLanes {
			return nil, corruptf("ANS: interleaved stream without a lane count of %d", ansLanes)
		}
		distinct, consumed, err = getUvarint(src[1:])
		if err != nil {
			return nil, err
		}
		src = src[1+consumed:]
	}
	if distinct == 0 || distinct > 256 {
		return nil, corruptf("ANS: distinct symbol count %d", distinct)
	}
	var freq [256]uint32
	var total uint32
	for i := uint64(0); i < distinct; i++ {
		if len(src) < 1 {
			return nil, corruptf("ANS: truncated frequency table")
		}
		sym := src[0]
		src = src[1:]
		f, consumed, err := getUvarint(src)
		if err != nil {
			return nil, err
		}
		src = src[consumed:]
		if f == 0 || f > ansProbScale {
			return nil, corruptf("ANS: frequency %d for symbol %d", f, sym)
		}
		if freq[sym] != 0 {
			return nil, corruptf("ANS: duplicate symbol %d", sym)
		}
		freq[sym] = uint32(f)
		total += uint32(f)
	}
	if total != ansProbScale {
		return nil, corruptf("ANS: frequencies sum to %d, want %d", total, ansProbScale)
	}

	// slot → (symbol, slot-start, freq-1) fused into one word — one dependent
	// load per decoded symbol instead of the symbol/freq/cum lookup chain.
	var cum uint32
	var tab [ansProbScale]uint32
	for s := 0; s < 256; s++ {
		f := freq[s]
		if f == 0 {
			continue
		}
		e := uint32(s) | (f-1)<<20
		for slot := cum; slot < cum+f; slot++ {
			tab[slot] = e
			e += 1 << 8
		}
		cum += f
	}

	states, low := 1, uint32(ansLowBound)
	if interleaved {
		states, low = ansLanes, ansLaneBound
	}
	if len(src) < 4*states {
		return nil, corruptf("ANS: truncated state")
	}
	var x [ansLanes]uint32
	for l := 0; l < states; l++ {
		x[l] = binary.LittleEndian.Uint32(src[4*l:])
		if x[l] < low {
			return nil, corruptf("ANS: invalid initial state %d", x[l])
		}
	}
	src = src[4*states:]

	var dst []byte
	if uint64(cap(scratch)) >= n {
		dst = scratch[:n]
	} else {
		dst = make([]byte, n)
	}
	if interleaved {
		err = ansDecodeInterleaved(dst, src, &x, &tab)
	} else {
		err = ansDecodeSerial(dst, src, x[0], &tab)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// ansDecSym decodes one symbol from x: the table entry, whose low byte is
// the symbol, and the state before renormalization.
func ansDecSym(x uint32, tab *[ansProbScale]uint32) (e, next uint32) {
	e = tab[x&(ansProbScale-1)]
	return e, (e>>20+1)*(x>>ansProbBits) + (e>>8)&0xfff
}

// ansDecodeSerial fills dst from a layout-1 body.
func ansDecodeSerial(dst, body []byte, x uint32, tab *[ansProbScale]uint32) error {
	pos := 0
	for i := range dst {
		var e uint32
		e, x = ansDecSym(x, tab)
		dst[i] = byte(e)
		// Renormalize: a state below 2^15 needs two bytes, never three (the
		// symbol update leaves x >= 2^11).
		if x < ansLowBound {
			if x < 1<<15 && pos+1 < len(body) {
				x = x<<16 | uint32(body[pos])<<8 | uint32(body[pos+1])
				pos += 2
			} else if pos < len(body) {
				x = x<<8 | uint32(body[pos])
				pos++
				if x < ansLowBound {
					if pos >= len(body) {
						return corruptf("ANS: truncated body at symbol %d", i)
					}
					x = x<<8 | uint32(body[pos])
					pos++
				}
			} else {
				return corruptf("ANS: truncated body at symbol %d", i)
			}
		}
	}
	return nil
}

// ansDecodeInterleaved fills dst from a layout-2 body. Unlike layout 1 it
// accepts a stream only if decoding consumes the body exactly and leaves
// every lane at ansLaneBound, the state the encoder started it from: a
// truncated, extended or bit-flipped stream has to get both right by chance.
func ansDecodeInterleaved(dst, body []byte, x *[ansLanes]uint32, tab *[ansProbScale]uint32) error {
	// Whole groups, while eight body bytes remain: one bounds check buys the
	// eight bytes at pos, of which the lanes take back the first 0-4 words
	// in lane order (ansRefill), and the four symbols leave in one 32-bit
	// store.
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	i, pos := 0, 0
	for ; i+ansLanes <= len(dst) && pos+8 <= len(body); i += ansLanes {
		w := (*[8]byte)(body[pos : pos+8])
		var e, syms uint32
		var at uint
		e, x0 = ansDecSym(x0, tab)
		syms = e & 0xff
		x0, at = ansRefill(x0, w, at)
		e, x1 = ansDecSym(x1, tab)
		syms |= e & 0xff << 8
		x1, at = ansRefill(x1, w, at)
		e, x2 = ansDecSym(x2, tab)
		syms |= e & 0xff << 16
		x2, at = ansRefill(x2, w, at)
		e, x3 = ansDecSym(x3, tab)
		syms |= e << 24
		x3, at = ansRefill(x3, w, at)
		binary.LittleEndian.PutUint32(dst[i:], syms)
		pos += int(at)
	}
	x[0], x[1], x[2], x[3] = x0, x1, x2, x3

	// The rest — fewer than eight body bytes, or fewer than four symbols —
	// one symbol and one checked word at a time.
	for ; i < len(dst); i++ {
		e, xi := ansDecSym(x[i&(ansLanes-1)], tab)
		dst[i] = byte(e)
		if xi < ansLaneBound {
			if pos+2 > len(body) {
				return corruptf("ANS: truncated body at symbol %d", i)
			}
			xi = xi<<16 | uint32(binary.LittleEndian.Uint16(body[pos:]))
			pos += 2
		}
		x[i&(ansLanes-1)] = xi
	}
	if pos != len(body) {
		return corruptf("ANS: %d body bytes left over", len(body)-pos)
	}
	for l, xl := range x {
		if xl != ansLaneBound {
			return corruptf("ANS: lane %d ends at state %d, want %d", l, xl, ansLaneBound)
		}
	}
	return nil
}

// ansRefill renormalizes x after a symbol without a branch: when x has
// fallen below ansLaneBound it takes the word at w[at:] and at moves past it.
// (After a fourth word at is 8; the mask keeps the compiler from checking an
// index it cannot bound.)
func ansRefill(x uint32, w *[8]byte, at uint) (uint32, uint) {
	word := uint32(w[at&6]) | uint32(w[at&6+1])<<8
	under := uint32((int64(x) - ansLaneBound) >> 63) // all ones when x < ansLaneBound
	return x<<(under&16) | word&under, at + uint(under&2)
}

// normalizedFreqs counts byte frequencies in src and normalizes them so
// that they sum exactly to ansProbScale with every present symbol >= 1.
func normalizedFreqs(src []byte) [256]uint32 {
	// Four count tables, bytes dealt round robin: a run of one byte (the
	// filter bitmap is a quarter 0xFF) then increments four counters in
	// turn, not one whose every increment waits for the store before it.
	var lanes [4][256]int
	s := src
	for ; len(s) >= 8; s = s[8:] {
		v := binary.LittleEndian.Uint64(s)
		lanes[0][byte(v)]++
		lanes[1][byte(v>>8)]++
		lanes[2][byte(v>>16)]++
		lanes[3][byte(v>>24)]++
		lanes[0][byte(v>>32)]++
		lanes[1][byte(v>>40)]++
		lanes[2][byte(v>>48)]++
		lanes[3][byte(v>>56)]++
	}
	for _, b := range s {
		lanes[0][b]++
	}
	var freq [256]uint32
	total := len(src)
	assigned := uint32(0)
	maxSym, maxF := 0, uint32(0)
	for s := range freq {
		c := lanes[0][s] + lanes[1][s] + lanes[2][s] + lanes[3][s]
		if c == 0 {
			continue
		}
		f := uint32(uint64(c) * ansProbScale / uint64(total))
		if f == 0 {
			f = 1
		}
		freq[s] = f
		assigned += f
		if f > maxF {
			maxF, maxSym = f, s
		}
	}
	// Fix rounding drift on the most frequent symbol. If the drift exceeds
	// its frequency (pathological), walk the table redistributing.
	diff := int64(ansProbScale) - int64(assigned)
	if int64(freq[maxSym])+diff >= 1 {
		freq[maxSym] = uint32(int64(freq[maxSym]) + diff)
	} else {
		// Rare path: shave from every symbol > 1 until the sum matches.
		freq[maxSym] = 1
		diff += int64(maxF) - 1
		for s := 0; diff < 0 && s < 256; s++ {
			for freq[s] > 1 && diff < 0 {
				freq[s]--
				diff++
			}
		}
	}
	return freq
}
