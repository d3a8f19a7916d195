package encoding_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"compso/internal/compress"
	"compso/internal/encoding"
	"compso/internal/xrand"
)

var updateANSGolden = flag.Bool("update", false, "rewrite testdata/ans_v1 from this build; refused once the encoder writes layout 2, which is every build since the one after the golden's")

const ansGoldenDir = "testdata/ans_v1"

// ansGoldenLens straddles every length at which the coder changes
// behaviour: empty, one symbol, a short tail, a typical small layer, the two
// sides of 32 KiB and a stream the size of a 4 MB tensor's plane 0.
var ansGoldenLens = []int{0, 1, 5, 1000, 32767, 32768, 152000}

// ansGoldenStreams are the inputs of the layout-1 stream goldens, by kind.
func ansGoldenStreams() map[string]func(n int) []byte {
	return map[string]func(n int) []byte{
		// One symbol at frequency 4096: the state never leaves its range and
		// the body is empty.
		"single": func(n int) []byte { return bytes.Repeat([]byte{0x07}, n) },
		"two":    encoding.TwoSymbols,
		// Plane 0 of a quantized K-FAC gradient, the stream the coder spends
		// its time on: about 300 000 kept codes of 2^21 elements.
		"plane": func(n int) []byte { return kfacPlane0()[:n:n] },
	}
}

var kfacPlane0 = sync.OnceValue(func() []byte {
	_, plane := encoding.KFACStreams(1<<21, 11)
	return plane
})

// ansGoldenBlobs build the compressors whose blobs carry ANS streams: the
// default compso (bitmap and plane streams), compso on the Zstd back-end
// with the filter off (ANS inside Zstd's literal and sequence streams) and
// cocktail (an ANS bitmap).
func ansGoldenBlobs() map[string]func() (compress.Compressor, error) {
	off := false
	return map[string]func() (compress.Compressor, error){
		"compso": func() (compress.Compressor, error) {
			return compress.ByName("compso", compress.Options{Seed: 21})
		},
		"compso_zstd_nofilter": func() (compress.Compressor, error) {
			return compress.ByName("compso", compress.Options{Seed: 22, Filter: &off, Codec: encoding.Zstd{}})
		},
		"cocktail": func() (compress.Compressor, error) {
			return compress.ByName("cocktail", compress.Options{Seed: 23, Keep: 0.2})
		},
	}
}

const ansGoldenBlobElems = 1 << 18

func ansGoldenTensor() []float32 {
	x := make([]float32, ansGoldenBlobElems)
	xrand.KFACGradient(xrand.NewSeeded(13), x, 1)
	return x
}

func sumBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func sumFloats(x []float32) string {
	b := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return sumBytes(b)
}

// TestANSv1GoldenDecodes pins the decode side of the format: every file
// under testdata/ans_v1 was written by the encoder as it stood before the
// interleaved layout existed, and must decode to the bytes (or float32
// bits) whose SHA-256 decoded.sha256 records. A stream the current encoder still
// writes in layout 1 must also come out byte for byte as the file holds it.
func TestANSv1GoldenDecodes(t *testing.T) {
	streams, blobs := ansGoldenStreams(), ansGoldenBlobs()
	if *updateANSGolden {
		writeANSGolden(t, streams, blobs)
	}
	sums := readSums(t)
	want := func(t *testing.T, file, got string) {
		t.Helper()
		if sums[file] == "" {
			t.Fatalf("%s is not in decoded.sha256", file)
		}
		if got != sums[file] {
			t.Fatalf("%s decodes to sha256 %s, decoded.sha256 says %s", file, got, sums[file])
		}
	}

	for kind, gen := range streams {
		for _, n := range ansGoldenLens {
			file := fmt.Sprintf("%s_%d.ans", kind, n)
			t.Run(file, func(t *testing.T) {
				enc := readGolden(t, file)
				dec, err := encoding.ANS{}.Decode(enc)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				want(t, file, sumBytes(dec))
				if !bytes.Equal(dec, gen(n)) {
					t.Fatal("decoded stream differs from the generator's input")
				}
				// Layout 1 announces 1..256 distinct symbols after the
				// length; anything the encoder still writes that way must not
				// have moved.
				again := encoding.ANS{}.Encode(dec)
				if n > 0 && encoding.ANSLayout(t, again) == 1 && !bytes.Equal(again, enc) {
					t.Fatal("layout-1 re-encoding differs from the golden stream")
				}
			})
		}
	}

	x := ansGoldenTensor()
	for name, mk := range blobs {
		file := name + ".blob"
		t.Run(file, func(t *testing.T) {
			c, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			xhat, err := c.Decompress(readGolden(t, file))
			if err != nil {
				t.Fatalf("Decompress: %v", err)
			}
			if len(xhat) != len(x) {
				t.Fatalf("restored %d elements, want %d", len(xhat), len(x))
			}
			want(t, file, sumFloats(xhat))
		})
	}
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(ansGoldenDir, file))
	if err != nil {
		t.Fatalf("%v (run with -update at a layout-1 commit)", err)
	}
	return b
}

// readSums parses decoded.sha256: "<hex of the decoded content>  <file>" per
// line, in sha256sum's format (but not of the file itself).
func readSums(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join(ansGoldenDir, "decoded.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sums := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, file, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("decoded.sha256: malformed line %q", sc.Text())
		}
		sums[file] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sums
}

func writeANSGolden(t *testing.T, streams map[string]func(int) []byte, blobs map[string]func() (compress.Compressor, error)) {
	t.Helper()
	if err := os.MkdirAll(ansGoldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	put := func(file string, data []byte, sum string) {
		if err := os.WriteFile(filepath.Join(ansGoldenDir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sums[file] = sum
	}
	for kind, gen := range streams {
		for _, n := range ansGoldenLens {
			src := gen(n)
			enc := encoding.ANS{}.Encode(src)
			if n > 0 && encoding.ANSLayout(t, enc) == 2 {
				t.Fatalf("this encoder writes %d bytes in layout 2: ans_v1 can only be recorded by one that knows layout 1 alone", n)
			}
			put(fmt.Sprintf("%s_%d.ans", kind, n), enc, sumBytes(src))
		}
	}
	x := ansGoldenTensor()
	for name, mk := range blobs {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := c.Compress(x)
		if err != nil {
			t.Fatal(err)
		}
		xhat, err := c.Decompress(blob)
		if err != nil {
			t.Fatal(err)
		}
		put(name+".blob", blob, sumFloats(xhat))
	}
	files := make([]string, 0, len(sums))
	for file := range sums {
		files = append(files, file)
	}
	sort.Strings(files)
	var list strings.Builder
	for _, file := range files {
		fmt.Fprintf(&list, "%s  %s\n", sums[file], file)
	}
	if err := os.WriteFile(filepath.Join(ansGoldenDir, "decoded.sha256"), []byte(list.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
