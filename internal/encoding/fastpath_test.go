package encoding

import (
	"bytes"
	"errors"
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

// TestEncodeAppendKeepsPrefix proves that appending to a buffer leaves what
// it held alone and adds exactly the bytes a fresh encoding has.
func TestEncodeAppendKeepsPrefix(t *testing.T) {
	prefix := []byte{0xDE, 0xAD}
	for _, c := range append(All(), Huffman{}) {
		for i, src := range fastPathInputs() {
			want := c.EncodeAppend(nil, src)
			got := c.EncodeAppend(append([]byte{}, prefix...), src)
			if !bytes.Equal(got[:2], prefix) {
				t.Fatalf("%s input %d: prefix clobbered", c.Name(), i)
			}
			if !bytes.Equal(got[2:], want) {
				t.Fatalf("%s input %d: appended encoding differs from a fresh one", c.Name(), i)
			}
		}
	}
}

// TestDecodeIntoUsesCallerBuffer holds every codec to the decode contract:
// the output lands in dst's storage whatever dst's length, and a stream
// longer than cap(dst) is ErrTooLarge.
func TestDecodeIntoUsesCallerBuffer(t *testing.T) {
	for _, c := range append(All(), Huffman{}) {
		for i, src := range fastPathInputs() {
			enc := c.EncodeAppend(nil, src)
			for _, dst := range [][]byte{make([]byte, 0, len(src)), make([]byte, 5, len(src)+64)} {
				got, err := c.DecodeInto(dst, enc)
				if err != nil {
					t.Fatalf("%s input %d cap %d: %v", c.Name(), i, cap(dst), err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("%s input %d cap %d: round trip mismatch", c.Name(), i, cap(dst))
				}
				if cap(got) > 0 && &got[:1][0] != &dst[:1][0] {
					t.Fatalf("%s input %d cap %d: output does not alias dst", c.Name(), i, cap(dst))
				}
			}
			if len(src) > 0 {
				if _, err := c.DecodeInto(make([]byte, 0, len(src)-1), enc); !errors.Is(err, ErrTooLarge) {
					t.Fatalf("%s input %d: one byte short: err = %v, want ErrTooLarge", c.Name(), i, err)
				}
			}
		}
	}
}
