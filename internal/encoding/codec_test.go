package encoding

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"compso/internal/stats"
)

// testInputs covers the edge cases every codec must survive.
func testInputs() map[string][]byte {
	rng := rand.New(rand.NewPCG(42, 43))
	random := make([]byte, 10000)
	for i := range random {
		random[i] = byte(rng.Uint64())
	}
	skewed := make([]byte, 20000)
	for i := range skewed {
		// Geometric-ish distribution similar to packed quantized gradients.
		v := 0
		for rng.Float64() < 0.6 && v < 255 {
			v++
		}
		skewed[i] = byte(v)
	}
	runs := make([]byte, 15000)
	for i := range runs {
		runs[i] = byte((i / 500) % 7)
	}
	repeats := bytes.Repeat([]byte("gradient-block-"), 800)
	return map[string][]byte{
		"empty":    {},
		"single":   {42},
		"two":      {1, 2},
		"constant": bytes.Repeat([]byte{7}, 5000),
		"random":   random,
		"skewed":   skewed,
		"runs":     runs,
		"repeats":  repeats,
		"allbytes": func() []byte {
			b := make([]byte, 256)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(),
		"zeros":      make([]byte, 4097), // crosses a bitcomp block boundary
		"short-run3": {9, 9, 9},
	}
}

// decode decodes enc into a fresh buffer of capacity n, the length the
// caller knows the stream decodes to.
func decode(c Codec, enc []byte, n int) ([]byte, error) {
	return c.DecodeInto(make([]byte, 0, n), enc)
}

func TestAllCodecsRoundTrip(t *testing.T) {
	for _, codec := range All() {
		for name, input := range testInputs() {
			enc := codec.EncodeAppend(nil, input)
			dec, err := decode(codec, enc, len(input))
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", codec.Name(), name, err)
			}
			if !bytes.Equal(dec, input) {
				t.Fatalf("%s/%s: round trip mismatch (len %d vs %d)", codec.Name(), name, len(dec), len(input))
			}
		}
	}
}

func TestHuffmanRoundTrip(t *testing.T) {
	codec := Huffman{}
	for name, input := range testInputs() {
		enc := codec.EncodeAppend(nil, input)
		dec, err := decode(codec, enc, len(input))
		if err != nil {
			t.Fatalf("Huffman/%s: %v", name, err)
		}
		if !bytes.Equal(dec, input) {
			t.Fatalf("Huffman/%s: round trip mismatch", name)
		}
	}
}

func TestSkewedDataCompresses(t *testing.T) {
	// Entropy coders must beat 1x on skewed data; this is what makes them
	// win Table 2 on gradient streams.
	input := testInputs()["skewed"]
	for _, codec := range []Codec{ANS{}, Deflate{}, Gdeflate{}, Zstd{}, Huffman{}} {
		enc := codec.EncodeAppend(nil, input)
		if len(enc) >= len(input) {
			t.Errorf("%s: skewed data grew: %d -> %d", codec.Name(), len(input), len(enc))
		}
	}
}

func TestConstantDataCompressesEverywhere(t *testing.T) {
	input := testInputs()["constant"]
	for _, codec := range All() {
		enc := codec.EncodeAppend(nil, input)
		// Bitcomp can only drop leading-zero bits (3 bits/byte for the
		// constant 7), so its bound is looser than the pattern-exploiting
		// codecs'.
		bound := len(input) / 4
		if codec.Name() == "Bitcomp" {
			bound = len(input) / 2
		}
		if len(enc) >= bound {
			t.Errorf("%s: constant run compressed only %d -> %d", codec.Name(), len(input), len(enc))
		}
	}
}

func TestCascadedBestOnRuns(t *testing.T) {
	input := testInputs()["runs"]
	casc := Cascaded{}.EncodeAppend(nil, input)
	if len(casc) > 400 {
		t.Fatalf("Cascaded on runs: %d bytes, want < 400", len(casc))
	}
}

func TestEntropyCodersBeatDictionaryOnSkewed(t *testing.T) {
	// §5.2: "compressors incorporating entropy coding (e.g., ANS, Deflate,
	// and Zstd) achieve higher compression ratios than those based on
	// dictionary matching (e.g., LZ4, Snappy) or run-length coding
	// (Cascaded). This is attributed to the gradient distribution's
	// non-uniformity."
	input := testInputs()["skewed"]
	ans := len(ANS{}.EncodeAppend(nil, input))
	lz4 := len(LZ4{}.EncodeAppend(nil, input))
	snappy := len(Snappy{}.EncodeAppend(nil, input))
	casc := len(Cascaded{}.EncodeAppend(nil, input))
	if ans >= lz4 || ans >= snappy || ans >= casc {
		t.Fatalf("ANS (%d) should beat LZ4 (%d), Snappy (%d), Cascaded (%d) on skewed data",
			ans, lz4, snappy, casc)
	}
}

func TestDecodeCorruptInput(t *testing.T) {
	// Every codec must reject a truncation of its own valid output with an
	// error rather than panicking or misdecoding silently.
	input := testInputs()["skewed"]
	codecs := All()
	codecs = append(codecs, Huffman{})
	for _, codec := range codecs {
		enc := codec.EncodeAppend(nil, input)
		for _, cut := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			dec, err := decode(codec, enc[:cut], len(input))
			if err == nil && !bytes.Equal(dec, input) {
				t.Errorf("%s: truncation to %d silently misdecoded", codec.Name(), cut)
			}
		}
		// Empty input buffer.
		if _, err := decode(codec, nil, len(input)); err == nil {
			t.Errorf("%s: decoding nil succeeded", codec.Name())
		}
	}
}

func TestDecodeErrorsWrapErrCorrupt(t *testing.T) {
	_, err := decode(ANS{}, []byte{0x05}, 5) // claims 5 bytes, no table
	if err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	// Names match case-insensitively, as compressor families do.
	for _, name := range []string{"zstd", "ans", "LZ4", "bitCOMP"} {
		c, err := ByName(name)
		if err != nil || !strings.EqualFold(c.Name(), name) {
			t.Fatalf("ByName(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := ByName("nope"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ByName(nope): err = %v, want ErrUnknownCodec", err)
	}
}

// TestCodecIDsAreFixed pins the wire id of every codec: a COMPSO blob
// names its codec by id, so an id that changes or is reused re-maps every
// stored blob.
func TestCodecIDsAreFixed(t *testing.T) {
	ids := map[byte]string{0: "ANS", 1: "Bitcomp", 2: "Cascaded", 3: "Deflate", 4: "Gdeflate", 5: "LZ4", 6: "Snappy", 7: "Zstd"}
	for id, name := range ids {
		c, err := ByID(id)
		if err != nil || c.Name() != name {
			t.Fatalf("ByID(%d) = %v, %v; want %s", id, c, err, name)
		}
	}
	seen := map[byte]string{}
	for _, c := range All() {
		id, err := ID(c)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[id]; ok {
			t.Fatalf("id %d names both %s and %s", id, prev, c.Name())
		}
		seen[id] = c.Name()
		if want, ok := ids[id]; ok && want != c.Name() {
			t.Fatalf("ID(%s) = %d, which is %s's", c.Name(), id, want)
		}
	}
	if _, err := ID(Huffman{}); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ID(Huffman) err = %v, want ErrUnknownCodec", err)
	}
	if _, err := ByID(byte(len(All()))); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ByID past the table: err = %v, want ErrUnknownCodec", err)
	}
}

func TestAllHasTableTwoOrder(t *testing.T) {
	want := []string{"ANS", "Bitcomp", "Cascaded", "Deflate", "Gdeflate", "LZ4", "Snappy", "Zstd"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("codec count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("codec %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRoundTripPropertyAllCodecs feeds structured-random inputs through every
// codec. This is the main safety net for the hand-written coders.
func TestRoundTripPropertyAllCodecs(t *testing.T) {
	codecs := All()
	codecs = append(codecs, Huffman{})
	for _, codec := range codecs {
		codec := codec
		f := func(seed uint64, size uint16, alphabet uint8) bool {
			rng := rand.New(rand.NewPCG(seed, 7))
			n := int(size) % 5000
			alpha := int(alphabet)%255 + 1
			input := make([]byte, n)
			for i := range input {
				if rng.Float64() < 0.3 && i > 0 {
					input[i] = input[i-1] // inject runs
				} else {
					input[i] = byte(rng.IntN(alpha))
				}
			}
			enc := codec.EncodeAppend(nil, input)
			dec, err := decode(codec, enc, len(input))
			return err == nil && bytes.Equal(dec, input)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", codec.Name(), err)
		}
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16384, 1 << 40, ^uint64(0)} {
		buf := putUvarint(nil, v)
		got, n, err := getUvarint(buf)
		if err != nil || got != v || n != len(buf) {
			t.Fatalf("uvarint %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := getUvarint([]byte{0x80, 0x80}); err == nil {
		t.Fatal("truncated uvarint accepted")
	}
	if _, _, err := getUvarint([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}); err == nil {
		t.Fatal("overflowing uvarint accepted")
	}
}

func TestANSApproachesEntropyBound(t *testing.T) {
	// ANS is an order-0 entropy coder: on i.i.d. skewed bytes its ratio
	// must come within ~10% of the Shannon bound (table overhead aside).
	input := testInputs()["skewed"]
	enc := ANS{}.EncodeAppend(nil, input)
	got := float64(len(input)) / float64(len(enc))
	bound := stats.EntropyCompressionBound(input)
	if got > bound {
		t.Fatalf("ANS ratio %.2f exceeds the entropy bound %.2f", got, bound)
	}
	if got < bound*0.85 {
		t.Fatalf("ANS ratio %.2f far below the entropy bound %.2f", got, bound)
	}
}
