package encoding_test

import (
	"os"
	"path/filepath"
	"testing"

	"compso/internal/compress"
	"compso/internal/encoding"
)

// FuzzDecode fuzzes every decoder from one target: byte 0 selects the codec
// and the rest is the stream. Beside each codec's own seeds it takes every
// stream the COMPSO blobs of the compress package's corpus carry, as
// compress cuts them from the blob: real bitmaps and code planes on every
// codec.
func FuzzDecode(f *testing.F) {
	codecs := encoding.FuzzCodecs
	index := map[string]byte{}
	for i, c := range codecs {
		index[c.Name()] = byte(i)
		for _, seed := range encoding.CodecSeeds(c) {
			f.Add(append([]byte{byte(i)}, seed...))
		}
	}
	blobs, err := filepath.Glob("../compress/testdata/blobs_v1/compso_*.blob")
	if err != nil || len(blobs) == 0 {
		f.Fatalf("no COMPSO blobs in the compress corpus (%v)", err)
	}
	for _, file := range blobs {
		blob, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		cdc, streams, err := compress.COMPSOStreams(blob)
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		for _, s := range streams {
			f.Add(append([]byte{index[cdc.Name()]}, s...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		encoding.CheckDecode(t, codecs[int(data[0])%len(codecs)], data[1:])
	})
}
