package encoding

import (
	"bytes"
	"compress/flate"
	"io"
)

// Deflate wraps the standard library's DEFLATE (LZ77 + Huffman) at the
// default compression level, standing in for nvCOMP's Deflate codec: a high
// compression ratio from the entropy-coding stage, at low throughput — the
// trade-off Table 2 reports.
type Deflate struct{}

// Name implements Codec.
func (Deflate) Name() string { return "Deflate" }

// EncodeAppend implements Codec.
func (Deflate) EncodeAppend(dst, src []byte) []byte {
	return flateEncode(dst, src, flate.DefaultCompression)
}

// DecodeInto implements Codec.
func (Deflate) DecodeInto(dst, src []byte) ([]byte, error) { return flateDecode(dst, src, "Deflate") }

// Gdeflate stands in for nvCOMP's GDeflate, "a variant of Deflate [that]
// achieves a high compression ratio through entropy coding but low
// throughput (similar to Deflate)" (§5.2). It runs DEFLATE at the maximum
// compression level: a slightly better ratio than Deflate, comparable
// (slow) speed.
type Gdeflate struct{}

// Name implements Codec.
func (Gdeflate) Name() string { return "Gdeflate" }

// EncodeAppend implements Codec.
func (Gdeflate) EncodeAppend(dst, src []byte) []byte {
	return flateEncode(dst, src, flate.BestCompression)
}

// DecodeInto implements Codec.
func (Gdeflate) DecodeInto(dst, src []byte) ([]byte, error) { return flateDecode(dst, src, "Gdeflate") }

func flateEncode(dst, src []byte, level int) []byte {
	out := putUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return out
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		// Only reachable with an invalid level constant; treat as a
		// programmer error.
		panic("encoding: flate.NewWriter: " + err.Error())
	}
	if _, err := w.Write(src); err != nil {
		panic("encoding: flate write: " + err.Error())
	}
	if err := w.Close(); err != nil {
		panic("encoding: flate close: " + err.Error())
	}
	return append(out, buf.Bytes()...)
}

func flateDecode(dst, src []byte, name string) ([]byte, error) {
	dst, src, err := decodeHeader(dst, src, name)
	if err != nil || len(dst) == 0 {
		return dst, err
	}
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	if _, err := io.ReadFull(r, dst); err != nil {
		return nil, corruptf("%s: %v", name, err)
	}
	return dst, nil
}
