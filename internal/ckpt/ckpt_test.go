package ckpt

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"compso/internal/compress"
	"compso/internal/kfac"
	"compso/internal/tensor"
	"compso/internal/xrand"
)

// goldenCheckpoint builds a fixed synthetic checkpoint exercising every
// section and every compressor-state kind. Its encoding is committed as
// testdata/golden_v1.ckpt; changing the format without bumping Version
// fails TestGoldenFile with a regeneration hint.
func goldenCheckpoint() *Checkpoint {
	mat := func(rows, cols int, base float64) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = base + float64(i)*0.125
		}
		return m
	}
	pcg := xrand.NewPCG(42)
	rngBytes, _ := pcg.MarshalBinary()
	compso := &CompState{Kind: kindCOMPSO, COMPSO: &compress.COMPSOState{RNG: rngBytes}}
	power := &CompState{Kind: kindPowerSGD, PowerSGD: &compress.PowerSGDState{
		Step: 7, Phase: 1, N: 6, Rows: 3, Cols: 2, Rank: 2,
		P: []float64{1, 2, 3, 4, 5, 6}, Q: []float64{0.5, -0.5, 0.25, -0.25},
	}}
	ef := &CompState{Kind: kindEF, EF: &EFState{
		Expect: 6, Pinned: true, Residual: []float32{0.1, -0.2, 0.3, 0, -0.5, 1},
		Inner: power,
	}}
	return &Checkpoint{
		Step: 12, Seed: 42, Workers: 2, UseKFAC: true,
		Method:     "K-FAC + COMPSO",
		Controller: "compso/stages=3/alpha=0.5",
		Params: []Param{
			{Name: "00-dense/W", Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}},
			{Name: "01-dense/W", Rows: 1, Cols: 2, Data: []float64{-0.5, 0.5}},
		},
		KFAC: &kfac.State{
			Step: 12, StatVersion: 6,
			A:   []*tensor.Matrix{mat(3, 3, 0.5)},
			G:   []*tensor.Matrix{mat(2, 2, -1)},
			Vel: [][]float64{{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}},
			OtherVel: [][]float64{
				nil,
				{0.125, 0.25},
			},
		},
		KFACCaches: []kfac.LayerCache{
			{
				Layer: 0, EigVersion: 6,
				EigA: &tensor.Eigen{Values: []float64{0.1, 0.9, 1.5}, Q: mat(3, 3, 0)},
				EigG: &tensor.Eigen{Values: []float64{0.2, 2.0}, Q: mat(2, 2, 1)},
			},
		},
		Ranks: []RankState{
			{DataRNG: rngBytes, CRSum: 37.5, CRCount: 12, Comp: compso,
				LayerComps: []LayerComp{{Layer: 0, State: ef}, {Layer: 1, State: compso}}},
			{DataRNG: rngBytes, CRSum: 36.25, CRCount: 12, Comp: power},
		},
		Log: Log{
			Iterations: []int{3, 7, 11},
			Losses:     []float64{2.5, 1.75, 1.25},
			Accuracies: []float64{0.25, 0.5, 0.625},
			FinalLoss:  1.25, FinalAcc: 0.625,
		},
		Counters: map[string]float64{
			"wire/grad-allgather/bytes":  123456,
			"wire/kfac-allgather/bytes":  7890,
			"wire/kfac-covariance/bytes": 4096,
			"wire/total/bytes":           135442,
			"train/steps":                12,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	c := goldenCheckpoint()
	blob := c.Encode()
	got, err := Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", c, got)
	}
	// Bit-exact re-encode.
	if !bytes.Equal(blob, got.Encode()) {
		t.Fatal("re-encoded bytes differ from original encoding")
	}
}

func TestRoundTripSGD(t *testing.T) {
	c := &Checkpoint{
		Step: 5, Seed: 7, Workers: 4, Method: "S-SGD + COMPSO",
		Params: []Param{{Name: "w", Rows: 1, Cols: 2, Data: []float64{1, 2}}},
		SGDVel: [][]float64{{0.5, -0.5}, nil},
		Ranks:  make([]RankState, 4),
		Log:    Log{FinalLoss: math.Pi},
		Counters: map[string]float64{
			"train/steps": 5,
		},
	}
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", c, got)
	}
	if got.SGDVel[1] != nil {
		t.Fatal("nil velocity entry not preserved")
	}
}

func TestGoldenFile(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.ckpt")
	blob := goldenCheckpoint().Encode()
	if os.Getenv("CKPT_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(blob))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with CKPT_UPDATE_GOLDEN=1 go test ./internal/ckpt)", err)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("checkpoint encoding changed but Version is still %d — bump ckpt.Version and regenerate the golden files with CKPT_UPDATE_GOLDEN=1 go test ./internal/ckpt", Version)
	}
	got, err := Decode(want)
	if err != nil {
		t.Fatalf("decoding golden file: %v", err)
	}
	if !reflect.DeepEqual(goldenCheckpoint(), got) {
		t.Fatal("golden file decodes to a different checkpoint")
	}
	if !bytes.Equal(got.Encode(), want) {
		t.Fatal("golden file does not re-encode to its own bytes")
	}
}

func TestDecodeErrorTaxonomy(t *testing.T) {
	blob := goldenCheckpoint().Encode()

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), blob...)
		b[0] = 'X'
		if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
		if _, err := Decode([]byte("nope")); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("short foreign blob: got %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(magic), len(magic) + 5, len(blob) / 2, len(blob) - 1} {
			b := blob[:n]
			_, err := Decode(b)
			if err == nil {
				t.Fatalf("truncation to %d bytes decoded successfully", n)
			}
			// Cutting the blob may surface as truncation or (because the
			// trailer moved) a checksum mismatch; both are acceptable, a
			// panic or success is not.
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("truncation to %d: got %v", n, err)
			}
		}
		// A truncated prefix of the magic itself is a torn write.
		if _, err := Decode([]byte("COMP")); !errors.Is(err, ErrTruncated) {
			t.Fatalf("magic prefix: got %v, want ErrTruncated", err)
		}
	})

	t.Run("version", func(t *testing.T) {
		b := append([]byte(nil), blob...)
		b[8] = 0xfe // bump version field
		b = fixCRC(b)
		if _, err := Decode(b); !errors.Is(err, ErrVersion) {
			t.Fatalf("got %v, want ErrVersion", err)
		}
	})

	t.Run("checksum", func(t *testing.T) {
		b := append([]byte(nil), blob...)
		b[len(b)/2] ^= 0x40
		if _, err := Decode(b); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
}

// TestDecodeRefusesFactorInverses: the layer cache's inverse slot stays on
// the wire, written empty; a checkpoint that fills it — a stamp or either
// matrix — is refused with ErrVersion rather than resumed without them.
func TestDecodeRefusesFactorInverses(t *testing.T) {
	inv := tensor.New(3, 3)
	for _, tc := range []struct {
		name       string
		stamp      uint64
		invA, invG *tensor.Matrix
	}{
		{"stamp", 6, nil, nil},
		{"invA", 0, inv, nil},
		{"invG", 0, nil, inv},
	} {
		e := &enc{}
		e.u32(1)
		e.u32(0)
		e.u64(6)
		e.optEigen(nil)
		e.optEigen(nil)
		e.u64(tc.stamp)
		e.optMatrix(tc.invA)
		e.optMatrix(tc.invG)
		if _, err := decodeKFACCaches(&dec{data: e.buf}); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: got %v, want ErrVersion", tc.name, err)
		}
	}
	// The same through Decode: the golden checkpoint's one cache entry ends
	// the section with the empty slot (a zero stamp, two absent matrices).
	blob := goldenCheckpoint().Encode()
	slot := encodeKFACCaches(goldenCheckpoint().KFACCaches)
	at := bytes.Index(blob, slot)
	if at < 0 {
		t.Fatal("cache section not found in the encoded checkpoint")
	}
	b := append([]byte(nil), blob...)
	b[at+len(slot)-10] = 6
	if _, err := Decode(fixCRC(b)); !errors.Is(err, ErrVersion) {
		t.Fatalf("stamped inverse slot: got %v, want ErrVersion", err)
	}
}

// fixCRC rewrites the trailer CRC so content mutations surface their own
// error class instead of ErrChecksum.
func fixCRC(b []byte) []byte {
	c := crc32.Checksum(b[:len(b)-4], castagnoli)
	b[len(b)-4] = byte(c)
	b[len(b)-3] = byte(c >> 8)
	b[len(b)-2] = byte(c >> 16)
	b[len(b)-1] = byte(c >> 24)
	return b
}

func TestSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	c := goldenCheckpoint()
	for _, step := range []int{4, 8, 12} {
		cc := *c
		cc.Step = step
		path, n, err := Save(dir, &cc)
		if err != nil {
			t.Fatalf("save step %d: %v", step, err)
		}
		if n <= 0 {
			t.Fatal("zero-byte checkpoint")
		}
		if filepath.Base(path) != FileName(step) {
			t.Fatalf("path %s, want base %s", path, FileName(step))
		}
	}
	// A torn temp file must not shadow a complete checkpoint.
	if err := os.WriteFile(filepath.Join(dir, FileName(16)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	latest, err := LatestPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(latest) != FileName(12) {
		t.Fatalf("latest %s, want %s", latest, FileName(12))
	}
	got, err := Load(latest)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 12 {
		t.Fatalf("loaded step %d, want 12", got.Step)
	}
	// Empty/missing dirs report no checkpoint, not an error.
	if p, err := LatestPath(filepath.Join(dir, "missing")); err != nil || p != "" {
		t.Fatalf("missing dir: %q, %v", p, err)
	}
}

func TestCompStateConversion(t *testing.T) {
	// Live compressors → snapshot → serializable tree → snapshot →
	// restored compressors, asserting the restored stream continues
	// bit-identically.
	inner := compress.NewPowerSGD(2, 1)
	ef := compress.NewErrorFeedback(inner)
	src := []float32{1, -2, 3, -4, 5, -6}
	if _, err := ef.Compress(src); err != nil {
		t.Fatal(err)
	}
	cs, err := CaptureCompressor(ef)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the tree through bytes inside a minimal checkpoint.
	c := &Checkpoint{Ranks: []RankState{{Comp: cs}}, Counters: map[string]float64{}}
	dec, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}

	ef2 := compress.NewErrorFeedback(compress.NewPowerSGD(2, 1))
	if err := RestoreCompressor(ef2, dec.Ranks[0].Comp); err != nil {
		t.Fatal(err)
	}
	b1, err := ef.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ef2.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("restored EF+PowerSGD stream diverged from the original")
	}
}

func TestCaptureRejectsNonRestorableState(t *testing.T) {
	// A Stateful-but-not-Restorable compressor must fail capture loudly.
	if _, err := CaptureCompressor(statefulOnly{}); err == nil {
		t.Fatal("capture of a non-Restorable stateful compressor succeeded")
	}
}

type statefulOnly struct{}

func (statefulOnly) Name() string                              { return "stateful-only" }
func (statefulOnly) Compress(src []float32) ([]byte, error)    { return nil, nil }
func (statefulOnly) Decompress(data []byte) ([]float32, error) { return nil, nil }
func (statefulOnly) Reset()                                    {}
func (statefulOnly) State() any                                { return struct{}{} }
