package encoding

import (
	"bytes"
	"testing"
)

// fuzzCodecs is what byte 0 of a FuzzDecode input (decode_fuzz_test.go)
// selects from, modulo its length: the Table 2 registry, then Huffman.
var fuzzCodecs = append(All(), Huffman{})

// codecSeeds is codec c's corpus: its long seeds, three malformed streams
// and three valid encodings.
//
// ANS writes streams of ansInterleaveMin bytes and more in another layout:
// without seeds in it the fuzzer would spend its budget on layout 1 alone
// (twoSymbols keeps the first near 2 KB). Zstd entropy-codes its literal and
// sequence streams with ANS; the parse of a low-entropy stream this long is
// nearly all sequences, enough of them to reach the interleaved layout.
func codecSeeds(c Codec) [][]byte {
	var seeds [][]byte
	switch c.(type) {
	case ANS:
		seeds = [][]byte{
			ANS{}.EncodeAppend(nil, twoSymbols(ansInterleaveMin+3)),
			ansEncodeAppend(nil, gradientPlane(203, 3), true),
		}
	case Zstd:
		seeds = [][]byte{Zstd{}.EncodeAppend(nil, gradientPlane(2*ansInterleaveMin, 9))}
	}
	seeds = append(seeds, nil, []byte{0}, []byte{0xff, 0xff, 0xff})
	for _, src := range [][]byte{[]byte("hello hello hello"), make([]byte, 1000), {1, 2, 3, 4, 5, 255, 254, 253}} {
		seeds = append(seeds, c.EncodeAppend(nil, src))
	}
	return seeds
}

// checkDecode holds c's decoder to the Codec contract on arbitrary input:
// no panic and no hang, output only in the caller's 1 MiB buffer, and a
// stream that decodes re-encodes to one that decodes to the same bytes.
func checkDecode(t *testing.T, c Codec, data []byte) {
	dst := make([]byte, 0, 1<<20)
	out, err := c.DecodeInto(dst, data)
	if err != nil {
		return
	}
	if cap(out) == 0 || &out[:1][0] != &dst[:1][0] {
		t.Fatalf("%s: output does not alias dst", c.Name())
	}
	back, err := c.DecodeInto(make([]byte, 0, len(out)), c.EncodeAppend(nil, out))
	if err != nil || !bytes.Equal(back, out) {
		t.Fatalf("%s: re-encode round trip failed: %v", c.Name(), err)
	}
}

// fuzzCodec fuzzes c's decoder alone, from c's seeds.
func fuzzCodec(f *testing.F, c Codec) {
	f.Helper()
	for _, seed := range codecSeeds(c) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, c, data) })
}

func FuzzANSDecode(f *testing.F)      { fuzzCodec(f, ANS{}) }
func FuzzBitcompDecode(f *testing.F)  { fuzzCodec(f, Bitcomp{}) }
func FuzzCascadedDecode(f *testing.F) { fuzzCodec(f, Cascaded{}) }
func FuzzLZ4Decode(f *testing.F)      { fuzzCodec(f, LZ4{}) }
func FuzzSnappyDecode(f *testing.F)   { fuzzCodec(f, Snappy{}) }
func FuzzZstdDecode(f *testing.F)     { fuzzCodec(f, Zstd{}) }
func FuzzHuffmanDecode(f *testing.F)  { fuzzCodec(f, Huffman{}) }
