package compress

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"compso/internal/encoding"
)

// redeclare returns enc with its leading uvarint length replaced by n.
func redeclare(t *testing.T, enc []byte, n uint64) []byte {
	t.Helper()
	_, w := binary.Uvarint(enc)
	if w <= 0 {
		t.Fatalf("stream without a length header: % x", enc)
	}
	return append(binary.AppendUvarint(nil, n), enc[w:]...)
}

// hostileCOMPSO is a 41-byte COMPSO blob of 64 elements, filter off, whose
// one byte plane in the stream of codec id declares 2^30 bytes.
func hostileCOMPSO(id byte) []byte {
	plane := append(binary.AppendUvarint(nil, 1<<30), make([]byte, 8)...)
	b := putHeader(nil, magicCOMPSO, 64)
	b = append(b, 0, id, 0) // no filter, codec id, byte planes, rounding 0
	b = putFloat64(b, 4e-3)
	b = putFloat64(b, 4e-3)
	b = putHeader(b, 0xBB, 64) // kept count
	b = putHeader(b, 0xBB, 0)  // empty bitmap section
	b = append(b, 1)           // one plane
	b = putHeader(b, 0xBB, len(plane))
	return append(b, plane...)
}

// TestHostileStreamsAreBounded gives each family's decoder a blob whose
// header passes an element cap of 64 and whose inner codec stream declares
// more bytes than that header allows. Decode must reject it as corrupt
// without allocating for the declared length.
func TestHostileStreamsAreBounded(t *testing.T) {
	blobs := map[string][]byte{}
	for id, name := range encoding.Names() {
		blobs["compso/"+name] = hostileCOMPSO(byte(id))
	}

	plane := make([]byte, 64)
	plane[3] = 1
	huff := redeclare(t, encoding.Huffman{}.EncodeAppend(nil, plane), 1<<30)
	sz := putHeader(nil, magicSZ, 64)
	sz = putFloat64(sz, 1e-3)
	sz = append(sz, 1) // one plane
	sz = putHeader(sz, 0xBB, len(huff))
	blobs["sz/huffman-plane"] = append(sz, huff...)

	bitmap := redeclare(t, encoding.ANS{}.EncodeAppend(nil, make([]byte, 8)), 1<<30)
	ck := putHeader(nil, magicCocktail, 64)
	ck = putFloat64(ck, 1)
	ck = binary.AppendUvarint(ck, 0) // kept count
	ck = binary.AppendUvarint(ck, uint64(len(bitmap)))
	blobs["cocktail/bitmap"] = append(ck, bitmap...)

	for name, blob := range blobs {
		t.Run(name, func(t *testing.T) {
			if n, err := PeekElements(blob); err != nil || n != 64 {
				t.Fatalf("PeekElements = %d, %v; want 64", n, err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(blob)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("decoding allocated %d bytes, want <= 64 KiB", grew)
			}
		})
	}
	if n := len(blobs["compso/Bitcomp"]); n != 41 {
		t.Errorf("hostile COMPSO blob is %d bytes, want 41", n)
	}
}

// TestBitPackedWideCodesDecode pins the bit-packed section's capacity
// (packedLen) to the widest codes: values far above the error bound make
// codes of 12 bits and more, whose section is over 1.5 bytes a value.
func TestBitPackedWideCodesDecode(t *testing.T) {
	x := kfacData(4096, 5)
	for i := range x {
		x[i] *= 100
	}
	c := NewCOMPSO(1)
	c.BitPacked = true
	blob, err := c.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func([]byte) ([]float32, error){
		"fused": c.Decompress, "reference": c.ReferenceDecompress,
	} {
		got, err := decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range x {
			if d := math.Abs(float64(got[i] - x[i])); d > c.MaxError()*(1+1e-6) {
				t.Fatalf("%s: element %d off by %g, bound %g", name, i, d, c.MaxError())
			}
		}
	}
}
