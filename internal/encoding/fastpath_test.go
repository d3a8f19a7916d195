package encoding

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// fastPathInputs covers empty, tiny, runny, and entropy-heavy streams, and
// the lengths on both sides of ansInterleaveMin: the last layout-1 stream,
// then all four tail lengths (n mod 4) of layout 2.
func fastPathInputs() [][]byte {
	rng := rand.New(rand.NewPCG(17, 29))
	random := make([]byte, 8192)
	for i := range random {
		random[i] = byte(rng.IntN(7)) // few distinct symbols, like a byte plane
	}
	runny := make([]byte, 8192)
	for i := range runny {
		runny[i] = byte(i / 512)
	}
	inputs := [][]byte{
		nil,
		{},
		{0},
		{1, 2, 3, 4, 5},
		bytes.Repeat([]byte{0xAB}, 1000),
		random,
		runny,
	}
	for n := ansInterleaveMin - 1; n <= ansInterleaveMin+3; n++ {
		inputs = append(inputs, gradientPlane(n, uint64(n)))
	}
	return inputs
}

// TestEncodeAppendMatchesEncode proves the pooled append paths emit exactly
// the bytes the allocating Encode paths do, for every registry codec (the
// helper falls back to Encode for codecs without a fast path, so the whole
// registry can be asserted uniformly).
func TestEncodeAppendMatchesEncode(t *testing.T) {
	prefix := []byte{0xDE, 0xAD}
	for _, c := range All() {
		for i, src := range fastPathInputs() {
			want := c.Encode(src)
			got := EncodeAppend(c, append([]byte{}, prefix...), src)
			if !bytes.Equal(got[:2], prefix) {
				t.Fatalf("%s input %d: prefix clobbered", c.Name(), i)
			}
			if !bytes.Equal(got[2:], want) {
				t.Fatalf("%s input %d: EncodeAppend differs from Encode", c.Name(), i)
			}
		}
	}
}

// TestDecodeIntoMatchesDecode proves DecodeInto round-trips into both
// undersized and oversized scratch, aliasing the scratch when it fits.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	for _, c := range All() {
		for i, src := range fastPathInputs() {
			enc := c.Encode(src)
			want, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s input %d: Decode: %v", c.Name(), i, err)
			}
			// Undersized scratch: must still decode correctly.
			got, err := DecodeInto(c, make([]byte, 0, 1), enc)
			if err != nil {
				t.Fatalf("%s input %d: DecodeInto(small): %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s input %d: DecodeInto(small) mismatch", c.Name(), i)
			}
			// Oversized scratch: correct bytes, and fast-path codecs must
			// alias the scratch storage.
			scratch := make([]byte, 0, len(src)+64)
			got, err = DecodeInto(c, scratch, enc)
			if err != nil {
				t.Fatalf("%s input %d: DecodeInto(big): %v", c.Name(), i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s input %d: DecodeInto(big) mismatch", c.Name(), i)
			}
			if _, ok := c.(IntoDecoder); ok && len(src) > 0 && len(got) > 0 {
				if &got[0] != &scratch[:1][0] {
					t.Fatalf("%s input %d: DecodeInto did not reuse scratch", c.Name(), i)
				}
			}
		}
	}
}
