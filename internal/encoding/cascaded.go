package encoding

import (
	"compso/internal/bitstream"
	"compso/internal/pool"
)

// Cascaded is the stand-in for nvCOMP's Cascaded codec: a run-length
// encoding stage followed by bit-packing of the run values and lengths.
// It shines on long constant runs (the zero runs a sparsified gradient
// produces) but, being run-length based, achieves a lower ratio than the
// entropy coders on the non-uniform but run-free quantized value streams —
// exactly the ordering Table 2 reports.
type Cascaded struct{}

// Name implements Codec.
func (Cascaded) Name() string { return "Cascaded" }

// EncodeAppend implements Codec. RLE pair vectors and the bit
// writer's buffer come from the buffer arena.
func (Cascaded) EncodeAppend(dst, src []byte) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	// Stage 1: RLE into (value, runLength) pairs. The appends below can
	// outgrow the 256-element arena buffers onto fresh heap arrays, so the
	// original handles are kept and Put at the end — the arena must never
	// be handed a grown foreign slice.
	valuesBuf := pool.Bytes(256)
	runsBuf := pool.U32(256)
	values := valuesBuf[:0]
	runs := runsBuf[:0]
	cur := src[0]
	var run uint32 = 1
	for _, b := range src[1:] {
		if b == cur && run < 1<<30 {
			run++
			continue
		}
		values = append(values, cur)
		runs = append(runs, run)
		cur, run = b, 1
	}
	values = append(values, cur)
	runs = append(runs, run)

	// Stage 2: bit-pack. Values at the width of their OR; run lengths at
	// the width of the maximum run.
	var orV byte
	var maxRun uint32
	for i, v := range values {
		orV |= v
		if runs[i] > maxRun {
			maxRun = runs[i]
		}
	}
	vWidth := uint(8)
	for vWidth > 0 && orV&(1<<(vWidth-1)) == 0 {
		vWidth--
	}
	rWidth := uint(1)
	for maxRun >= 1<<rWidth {
		rWidth++
	}
	out = putUvarint(out, uint64(len(values)))
	out = append(out, byte(vWidth), byte(rWidth))
	var w bitstream.Writer
	// Worst case is 8 value bits + 31 run bits per pair (< 5 bytes). Even
	// so, Put the handle given to ResetBuf rather than w.Buf(): the writer
	// grows by append and its final buffer need not be the arena's.
	wBuf := pool.Bytes(len(values)*5 + 8)
	w.ResetBuf(wBuf)
	for i, v := range values {
		w.WriteBits(uint64(v), vWidth)
		w.WriteBits(uint64(runs[i]), rWidth)
	}
	out = append(out, w.Bytes()...)
	pool.PutBytes(wBuf)
	pool.PutBytes(valuesBuf)
	pool.PutU32(runsBuf)
	return out
}

// DecodeInto implements Codec.
func (Cascaded) DecodeInto(dst, src []byte) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, "Cascaded")
	if err != nil || len(dst) == 0 {
		return dst, err
	}
	pairs, consumed, err := getUvarint(src)
	if err != nil {
		return nil, err
	}
	src = src[consumed:]
	if len(src) < 2 {
		return nil, corruptf("Cascaded: truncated widths")
	}
	vWidth, rWidth := uint(src[0]), uint(src[1])
	if vWidth > 8 || rWidth == 0 || rWidth > 31 {
		return nil, corruptf("Cascaded: invalid widths v=%d r=%d", vWidth, rWidth)
	}
	r := bitstream.NewReader(src[2:])
	pos := 0
	for p := uint64(0); p < pairs; p++ {
		v, err := r.ReadBits(vWidth)
		if err != nil {
			return nil, corruptf("Cascaded: truncated value %d", p)
		}
		run, err := r.ReadBits(rWidth)
		if err != nil {
			return nil, corruptf("Cascaded: truncated run %d", p)
		}
		if run == 0 || run > uint64(len(dst)-pos) {
			return nil, corruptf("Cascaded: run %d overflows output (%d+%d > %d)", p, pos, run, len(dst))
		}
		end := pos + int(run)
		for ; pos < end; pos++ {
			dst[pos] = byte(v)
		}
	}
	if pos != len(dst) {
		return nil, corruptf("Cascaded: decoded %d bytes, want %d", pos, len(dst))
	}
	return dst, nil
}
