package compress

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"compso/internal/encoding"
)

// fuzzMaxElements is the element cap the fuzz targets hold their inputs to,
// the contract a server follows: PeekElements first, decode only under its
// cap. It admits the 2^18-element seeds, whose bitmaps are long enough for
// rANS's interleaved layout.
const fuzzMaxElements = 1 << 18

// powerSGDHostileHeader is a PowerSGD header whose rows·cols product
// overflows and whose factor dims disagree with the payload length.
func powerSGDHostileHeader() []byte {
	hdr := []byte{magicLowRank, 0xe8, 0x07, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x04}
	return append(hdr, 0xde, 0xad)
}

func compressSeed(f *testing.F, c Compressor, x []float32) []byte {
	f.Helper()
	blob, err := c.Compress(x)
	if err != nil {
		f.Fatal(err)
	}
	return blob
}

// checkDecoded holds a decode of data to the blob's header: a blob under
// the cap decodes to exactly the elements it declares or is rejected, and
// never panics.
func checkDecoded(t *testing.T, data []byte, decode func([]byte) ([]float32, error)) {
	n, err := PeekElements(data)
	if err != nil || n > fuzzMaxElements {
		return
	}
	out, err := decode(data)
	if err == nil && out == nil && len(data) > 0 {
		t.Fatal("nil output without error")
	}
	if err == nil && len(out) != n {
		t.Fatalf("decoded %d elements, the header declares %d", len(out), n)
	}
}

// FuzzDecode fuzzes the magic-byte dispatcher, and so every family's
// decoder, from one valid blob per registered family, one COMPSO blob per
// codec id and every blob of the recorded corpus.
func FuzzDecode(f *testing.F) {
	for _, seed := range [][]byte{nil, {0}, {magicQSGD, 0x05}} {
		f.Add(seed)
	}
	for _, b := range readCorpusManifest(f).Blobs {
		blob, err := os.ReadFile(filepath.Join(corpusDir, b.File))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, family := range Families() {
		c, err := ByName(family, Options{Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(compressSeed(f, c, kfacData(500, 1)))
	}
	for _, cdc := range encoding.All() {
		c := NewCOMPSO(1)
		c.Codec = cdc
		f.Add(compressSeed(f, c, kfacData(500, 1)))
	}
	// With the filter off a blob's plane holds every element, so at 2^16
	// elements it is long enough for rANS's interleaved layout.
	c := NewCOMPSO(2)
	c.FilterEnabled = false
	f.Add(compressSeed(f, c, kfacData(1<<16, 2)))
	f.Add(powerSGDHostileHeader())

	f.Fuzz(func(t *testing.T, data []byte) { checkDecoded(t, data, Decode) })
}

// fuzzDecompress fuzzes one family's Decompress from its extra seeds, three
// malformed blobs and one valid 500-element blob.
func fuzzDecompress(f *testing.F, mk func() Compressor, extra ...[]byte) {
	f.Helper()
	for _, seed := range append(extra, nil, []byte{0}, []byte{magicQSGD, 0x05}, compressSeed(f, mk(), kfacData(500, 1))) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecoded(t, data, mk().Decompress) })
}

// ansSeed is a blob of 2^18 elements: its bitmap is 32 KiB, the shortest
// stream rANS writes in its interleaved layout, which no 500-element seed
// reaches.
func ansSeed(f *testing.F, c Compressor) []byte {
	return compressSeed(f, c, kfacData(1<<18, 2))
}

func FuzzCOMPSODecompress(f *testing.F) {
	mk := func() Compressor { return NewCOMPSO(1) }
	fuzzDecompress(f, mk, ansSeed(f, mk()))
}

func FuzzQSGDDecompress(f *testing.F) {
	fuzzDecompress(f, func() Compressor { return NewQSGD(8, 2) })
}

func FuzzSZDecompress(f *testing.F) {
	fuzzDecompress(f, func() Compressor { return NewSZ(4e-3) })
}

func FuzzCocktailDecompress(f *testing.F) {
	mk := func() Compressor { return NewCocktailSGD(0.2, 8, 3) }
	fuzzDecompress(f, mk, ansSeed(f, mk()))
}

func FuzzPowerSGDDecompress(f *testing.F) {
	fuzzDecompress(f, func() Compressor { return NewPowerSGD(4, 7) }, powerSGDHostileHeader())
}

// FuzzChunkedDecompress fuzzes the chunked frame around QSGD, which
// Decode does not dispatch to: arbitrary bytes must never panic.
func FuzzChunkedDecompress(f *testing.F) {
	mk := func() Compressor {
		return &Chunked{New: func(seed int64) Compressor { return NewQSGD(8, seed) }, ChunkSize: 64}
	}
	// Corpus entries for the decode-path regressions: a valid frame with
	// trailing garbage, and a size-table entry whose int cast used to
	// overflow negative and panic the slicing below.
	valid, err := mk().Compress(kfacData(130, 4))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), valid...), 0xbe, 0xef))
	huge := binary.AppendUvarint(nil, 64) // total
	huge = binary.AppendUvarint(huge, 64) // chunk size
	huge = binary.AppendUvarint(huge, 1)  // nChunks
	huge = binary.AppendUvarint(huge, 1<<63)
	f.Add(append(huge, 0xde, 0xad))
	for _, seed := range [][]byte{nil, {0}, {magicQSGD, 0x05}, valid} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := mk().Decompress(data)
		if err == nil && out == nil && len(data) > 0 {
			t.Fatal("nil output without error")
		}
	})
}
