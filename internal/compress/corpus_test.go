package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"compso/internal/encoding"
	"compso/internal/quant"
	"compso/internal/xrand"
)

var updateCorpus = flag.Bool("update", false, "record the missing files of testdata/blobs_v1 from this build; refused for any file that already exists (a format change records blobs_v2 beside it)")

// corpusDir holds the version-1 blob corpus: every wire format this package
// writes, recorded once and never rewritten. Each blob must decode to the
// SHA-256 of its recorded output bits and re-encode, from its manifest
// entry, to the same bytes.
const corpusDir = "testdata/blobs_v1"

// corpusManifest is manifest.json: how each blob was made and what it
// decodes to.
type corpusManifest struct {
	Format string       `json:"format"`
	Blobs  []corpusBlob `json:"blobs"`
}

// corpusBlob records one blob. Family is a registry family or "chunked";
// the option fields that apply to it are set, the rest are zero.
type corpusBlob struct {
	File   string `json:"file"`
	Family string `json:"family"`
	// Seed is the compressor's seed: NewCOMPSO's, the registry's
	// Options.Seed, or Chunked.Seed.
	Seed int64 `json:"seed"`

	// compso, built by NewCOMPSO(Seed) and these fields.
	Codec     string  `json:"codec,omitempty"`
	Rounding  string  `json:"rounding,omitempty"`
	Filter    bool    `json:"filter,omitempty"`
	BitPacked bool    `json:"bit_packed,omitempty"`
	EBFilter  float64 `json:"eb_filter,omitempty"`
	EBQuant   float64 `json:"eb_quant,omitempty"`

	// qsgd, sz, cocktail and powersgd, built by ByName with these
	// Options fields.
	Bits  int     `json:"bits,omitempty"`
	Keep  float64 `json:"keep,omitempty"`
	RelEB float64 `json:"rel_eb,omitempty"`
	Rank  int     `json:"rank,omitempty"`

	// chunked: Chunked{ChunkSize, Seed} over ByName(Inner, Options{Seed: s}).
	Inner     string `json:"inner,omitempty"`
	ChunkSize int    `json:"chunk_size,omitempty"`

	Input corpusInput `json:"input"`
	// Decoded is the SHA-256 of the decoded float32s, little-endian.
	Decoded string `json:"decoded_sha256"`
}

// corpusInput is a blob's input: N values of Generator seeded with
// xrand.NewSeeded(Seed), at Scale.
type corpusInput struct {
	Generator string  `json:"generator"`
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
}

const corpusGenerator = "xrand.KFACGradient"

func (in corpusInput) values(t *testing.T) []float32 {
	t.Helper()
	if in.Generator != corpusGenerator {
		t.Fatalf("input generator %q, want %q", in.Generator, corpusGenerator)
	}
	x := make([]float32, in.N)
	xrand.KFACGradient(xrand.NewSeeded(in.Seed), x, in.Scale)
	return x
}

// corpusSpec lists the version-1 corpus: one blob of each other family, a
// Chunked frame, and COMPSO over every codec × rounding mode × filter on/off
// × byte planes/bit packing, plus blobs with wide codes and one whose
// 40 000-byte plane 0 rANS writes in its interleaved layout 2.
func corpusSpec() []corpusBlob {
	in := corpusInput{Generator: corpusGenerator, N: 2048, Seed: 7, Scale: 1}
	var spec []corpusBlob
	compso := func(cdc string, mode quant.Mode, filter, packed bool, suffix string, in corpusInput) {
		name := fmt.Sprintf("compso_%s_%s_%s_%s%s.blob", strings.ToLower(cdc),
			strings.ToLower(strings.ReplaceAll(mode.String(), ".", "")),
			map[bool]string{true: "filter", false: "nofilter"}[filter],
			map[bool]string{true: "packed", false: "planes"}[packed], suffix)
		spec = append(spec, corpusBlob{File: name, Family: "compso", Seed: 1,
			Codec: cdc, Rounding: mode.String(), Filter: filter, BitPacked: packed,
			EBFilter: 4e-3, EBQuant: 4e-3, Input: in})
	}
	for _, cdc := range encoding.All() {
		for _, mode := range []quant.Mode{quant.RN, quant.SR, quant.P05} {
			for _, filter := range []bool{true, false} {
				for _, packed := range []bool{false, true} {
					compso(cdc.Name(), mode, filter, packed, "", in)
				}
			}
		}
	}
	wide := in
	wide.Scale = 1000
	compso("ANS", quant.SR, false, false, "_wide", wide)
	compso("ANS", quant.SR, false, true, "_wide", wide)
	long := in
	long.N = 40000
	compso("ANS", quant.SR, false, false, "_layout2", long)

	spec = append(spec,
		corpusBlob{File: "qsgd.blob", Family: "qsgd", Seed: 2, Bits: 8, Input: in},
		corpusBlob{File: "sz.blob", Family: "sz", RelEB: 4e-3, Input: in},
		corpusBlob{File: "cocktail.blob", Family: "cocktail", Seed: 3, Bits: 8, Keep: 0.2, Input: in},
		corpusBlob{File: "powersgd.blob", Family: "powersgd", Seed: 4, Rank: 4, Input: in},
	)
	chunked := in
	chunked.N = 2500
	spec = append(spec, corpusBlob{File: "chunked_compso.blob", Family: "chunked", Seed: 5,
		Inner: "compso", ChunkSize: 1000, Input: chunked})
	return spec
}

// compressor builds the compressor b records, fresh.
func (b corpusBlob) compressor(t *testing.T) Compressor {
	t.Helper()
	switch b.Family {
	case "compso":
		c := NewCOMPSO(b.Seed)
		cdc, err := encoding.ByName(b.Codec)
		if err != nil {
			t.Fatal(err)
		}
		c.Codec = cdc
		c.Rounding = -1
		for _, m := range []quant.Mode{quant.RN, quant.SR, quant.P05} {
			if m.String() == b.Rounding {
				c.Rounding = m
			}
		}
		if c.Rounding < 0 {
			t.Fatalf("rounding %q", b.Rounding)
		}
		c.FilterEnabled, c.BitPacked = b.Filter, b.BitPacked
		c.EBFilter, c.EBQuant = b.EBFilter, b.EBQuant
		return c
	case "chunked":
		return &Chunked{ChunkSize: b.ChunkSize, Seed: b.Seed, Workers: 1,
			New: func(seed int64) Compressor {
				c, err := ByName(b.Inner, Options{Seed: seed})
				if err != nil {
					panic(err)
				}
				return c
			}}
	default:
		c, err := ByName(b.Family, Options{Seed: b.Seed, Bits: b.Bits, Keep: b.Keep, RelEB: b.RelEB, Rank: b.Rank})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// decoders returns every decode path b's blob must restore through: the
// magic-byte dispatcher (Chunked has no magic, so its own Decompress) and,
// for COMPSO, the multi-pass reference.
func (b corpusBlob) decoders(t *testing.T) map[string]func([]byte) ([]float32, error) {
	if b.Family == "chunked" {
		return map[string]func([]byte) ([]float32, error){"Decompress": b.compressor(t).Decompress}
	}
	ds := map[string]func([]byte) ([]float32, error){"Decode": Decode}
	if b.Family == "compso" {
		ds["ReferenceDecompress"] = (&COMPSO{}).ReferenceDecompress
	}
	return ds
}

// encoders returns every encode path that must reproduce b's blob from a
// fresh compressor: Compress and, where the family keeps one, the
// multi-pass ReferenceCompress.
func (b corpusBlob) encoders(t *testing.T) map[string]func([]float32) ([]byte, error) {
	es := map[string]func([]float32) ([]byte, error){"Compress": b.compressor(t).Compress}
	if r, ok := b.compressor(t).(interface {
		ReferenceCompress([]float32) ([]byte, error)
	}); ok {
		es["ReferenceCompress"] = r.ReferenceCompress
	}
	return es
}

func sumFloat32s(x []float32) string {
	buf := make([]byte, 4*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	s := sha256.Sum256(buf)
	return hex.EncodeToString(s[:])
}

// TestBlobCorpusV1 holds every blob of testdata/blobs_v1 to its manifest
// entry: each decode path restores the recorded output bits, and each
// encode path rebuilds the blob byte for byte.
func TestBlobCorpusV1(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden float bits are recorded on amd64; %s may fuse multiply-adds differently", runtime.GOARCH)
	}
	if *updateCorpus {
		recordCorpus(t, corpusSpec())
	}
	m := readCorpusManifest(t)
	if len(m.Blobs) == 0 {
		t.Fatal("empty manifest")
	}
	for _, b := range m.Blobs {
		t.Run(b.File, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join(corpusDir, b.File))
			if err != nil {
				t.Fatal(err)
			}
			for name, decode := range b.decoders(t) {
				x, err := decode(blob)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(x) != b.Input.N {
					t.Fatalf("%s: %d values, want %d", name, len(x), b.Input.N)
				}
				if got := sumFloat32s(x); got != b.Decoded {
					t.Fatalf("%s: decoded sha256 %s, manifest %s", name, got, b.Decoded)
				}
			}
			src := b.Input.values(t)
			for name, encode := range b.encoders(t) {
				again, err := encode(src)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(again, blob) {
					t.Fatalf("%s: re-encoding differs from the recorded blob (%d bytes, recorded %d)", name, len(again), len(blob))
				}
			}
		})
	}
}

func readCorpusManifest(tb testing.TB) corpusManifest {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join(corpusDir, "manifest.json"))
	if err != nil {
		tb.Fatalf("%v (record with -update)", err)
	}
	var m corpusManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		tb.Fatal(err)
	}
	return m
}

// recordCorpus writes spec's blobs and the manifest. A file that already
// exists is never overwritten: the recorded corpus is the proof that old
// blobs still decode, so a format change records a new version beside it.
func recordCorpus(t *testing.T, spec []corpusBlob) {
	t.Helper()
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, file := range append([]string{"manifest.json"}, fileNames(spec)...) {
		if _, err := os.Stat(filepath.Join(corpusDir, file)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s/%s exists: blobs_v1 is recorded once; record a format change as blobs_v2", corpusDir, file)
		}
	}
	for i, b := range spec {
		blob, err := b.compressor(t).Compress(b.Input.values(t))
		if err != nil {
			t.Fatalf("%s: %v", b.File, err)
		}
		decode := Decode
		if b.Family == "chunked" {
			decode = b.compressor(t).Decompress
		}
		x, err := decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", b.File, err)
		}
		spec[i].Decoded = sumFloat32s(x)
		if err := os.WriteFile(filepath.Join(corpusDir, b.File), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := corpusManifest{
		Format: "compress blob corpus v1: each blob decodes to decoded_sha256 (little-endian float32 bits) and re-encodes from its entry to the same bytes",
		Blobs:  spec,
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpusDir, "manifest.json"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func fileNames(spec []corpusBlob) []string {
	names := make([]string, len(spec))
	for i, b := range spec {
		names[i] = b.File
	}
	return names
}
