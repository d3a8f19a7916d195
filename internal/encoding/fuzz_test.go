package encoding

import (
	"bytes"
	"testing"
)

// Decoder fuzzing: arbitrary input must never panic or hang — only return
// data or an error. Valid encodings must round-trip.

func fuzzCodec(f *testing.F, c Codec) {
	f.Helper()
	for _, seed := range [][]byte{
		nil,
		{0},
		{0xff, 0xff, 0xff},
		c.Encode([]byte("hello hello hello")),
		c.Encode(make([]byte, 1000)),
		c.Encode([]byte{1, 2, 3, 4, 5, 255, 254, 253}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := c.Decode(data)
		if err != nil {
			return
		}
		// A successful decode of an actual encoding must round-trip.
		reenc := c.Encode(out)
		back, err := c.Decode(reenc)
		if err != nil || !bytes.Equal(back, out) {
			t.Fatalf("re-encode round trip failed: %v", err)
		}
	})
}

// The seeds above are all short, and ANS writes streams of ansInterleaveMin
// bytes and more in another layout: without a seed that long the fuzzer would
// spend its budget on layout 1 alone. twoSymbols keeps the seed near 2 KB.
func FuzzANSDecode(f *testing.F) {
	f.Add(ANS{}.Encode(twoSymbols(ansInterleaveMin + 3)))
	f.Add(ansEncodeAppend(nil, gradientPlane(203, 3), true))
	fuzzCodec(f, ANS{})
}

func FuzzBitcompDecode(f *testing.F)  { fuzzCodec(f, Bitcomp{}) }
func FuzzCascadedDecode(f *testing.F) { fuzzCodec(f, Cascaded{}) }
func FuzzLZ4Decode(f *testing.F)      { fuzzCodec(f, LZ4{}) }
func FuzzSnappyDecode(f *testing.F)   { fuzzCodec(f, Snappy{}) }

// Zstd entropy-codes its literal and sequence streams with ANS; the parse of
// a low-entropy stream this long is nearly all sequences, enough of them to
// reach the interleaved layout.
func FuzzZstdDecode(f *testing.F) {
	f.Add(Zstd{}.Encode(gradientPlane(2*ansInterleaveMin, 9)))
	fuzzCodec(f, Zstd{})
}

func FuzzHuffmanDecode(f *testing.F) { fuzzCodec(f, Huffman{}) }
