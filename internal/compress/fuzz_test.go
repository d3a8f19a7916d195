package compress

import (
	"encoding/binary"
	"testing"
)

// Decompressor fuzzing: arbitrary bytes must never panic — only return
// values or an error.

func fuzzDecompress(f *testing.F, mk func() Compressor) {
	f.Helper()
	c := mk()
	valid, err := c.Compress(kfacData(500, 1))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{nil, {0}, {0x51, 0x05}, valid} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := mk()
		out, err := dec.Decompress(data)
		if err == nil && out == nil && len(data) > 0 {
			t.Fatal("nil output without error")
		}
	})
}

// addANSSeed adds a blob of 2^18 elements: its bitmap is 32 KiB, the
// shortest stream rANS writes in its interleaved layout, which no
// 500-element seed reaches.
func addANSSeed(f *testing.F, c Compressor) {
	f.Helper()
	blob, err := c.Compress(kfacData(1<<18, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
}

func FuzzCOMPSODecompress(f *testing.F) {
	addANSSeed(f, NewCOMPSO(1))
	fuzzDecompress(f, func() Compressor { return NewCOMPSO(1) })
}

func FuzzQSGDDecompress(f *testing.F) {
	fuzzDecompress(f, func() Compressor { return NewQSGD(8, 2) })
}

func FuzzSZDecompress(f *testing.F) {
	fuzzDecompress(f, func() Compressor { return NewSZ(4e-3) })
}

func FuzzCocktailDecompress(f *testing.F) {
	addANSSeed(f, NewCocktailSGD(0.2, 8, 3))
	fuzzDecompress(f, func() Compressor { return NewCocktailSGD(0.2, 8, 3) })
}

func FuzzPowerSGDDecompress(f *testing.F) {
	// Extra corpus entry: a header whose rows·cols product overflows and
	// whose factor dims disagree with the payload length.
	hdr := []byte{magicLowRank, 0xe8, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x04}
	f.Add(append(hdr, 0xde, 0xad))
	fuzzDecompress(f, func() Compressor { return NewPowerSGD(4, 7) })
}

func FuzzChunkedDecompress(f *testing.F) {
	mk := func() Compressor {
		return &Chunked{New: func(seed int64) Compressor { return NewQSGD(8, seed) }, ChunkSize: 64}
	}
	// Corpus entries for the decode-path regressions: a valid frame with
	// trailing garbage, and a size-table entry whose int cast used to
	// overflow negative and panic the slicing below.
	c := mk()
	valid, err := c.Compress(kfacData(130, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), valid...), 0xbe, 0xef))
	huge := binary.AppendUvarint(nil, 64) // total
	huge = binary.AppendUvarint(huge, 64) // chunk size
	huge = binary.AppendUvarint(huge, 1)  // nChunks
	huge = binary.AppendUvarint(huge, 1<<63)
	f.Add(append(huge, 0xde, 0xad))
	fuzzDecompress(f, mk)
}
