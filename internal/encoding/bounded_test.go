package encoding

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// allocated returns the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileHeaderIsBounded gives every decoder a well-formed stream of 64
// bytes whose length header is replaced by one declaring 2^30 or 2^33, and a
// 64-byte buffer: the decoder must reject it as ErrTooLarge without
// allocating for the declared length.
func TestHostileHeaderIsBounded(t *testing.T) {
	for _, c := range append(All(), Huffman{}) {
		enc := c.EncodeAppend(nil, gradientPlane(64, 1))
		_, w, err := getUvarint(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, declared := range []uint64{1 << 30, 1 << 33} {
			t.Run(fmt.Sprintf("%s/%d", c.Name(), declared), func(t *testing.T) {
				stream := append(putUvarint(nil, declared), enc[w:]...)
				dst := make([]byte, 0, 64)
				var err error
				grew := allocated(func() { _, err = c.DecodeInto(dst, stream) })
				if !errors.Is(err, ErrTooLarge) {
					t.Fatalf("err = %v, want ErrTooLarge", err)
				}
				if grew > 64<<10 {
					t.Fatalf("decoding allocated %d bytes, want <= 64 KiB", grew)
				}
			})
		}
	}
}
