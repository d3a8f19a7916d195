// Package compress implements the lossy gradient compressors the paper
// evaluates: COMPSO (the contribution — filter + stochastic rounding +
// lossless encoding, §4.3), and the three baselines QSGD (SR quantization +
// Elias coding), SZ (prediction + RN quantization + Huffman, the cuSZ
// algorithm), and CocktailSGD (top-k sparsification + 8-bit SR
// quantization). Each compressor produces a self-describing byte buffer and
// restores a float32 vector whose pointwise error respects the compressor's
// error-control setting.
//
// Compressor implementations are NOT safe for concurrent use (stochastic
// rounding consumes a per-compressor RNG stream); create one per worker, or
// use Chunked with a factory for data-parallel compression.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"compso/internal/quant"
)

// Compressor lossily compresses float32 gradient vectors.
type Compressor interface {
	// Name identifies the compressor in experiment output.
	Name() string
	// Compress encodes src. The input slice is not retained.
	Compress(src []float32) ([]byte, error)
	// Decompress restores a vector of the original length. It returns an
	// error on truncated or corrupt input.
	Decompress(data []byte) ([]float32, error)
}

// ErrCorrupt is wrapped by all decompressors on malformed input.
var ErrCorrupt = errors.New("compress: corrupt input")

// ErrOutOfRange is returned by Compress for input a family cannot code: a
// NaN or ±Inf anywhere. Match with errors.Is.
var ErrOutOfRange = errors.New("compress: value out of the codable range")

// ErrLengthMismatch marks a stateful compressor fed a gradient whose length
// differs from the length its stream state was built for (e.g. an
// error-feedback residual). It is a caller error, not an internal fault.
var ErrLengthMismatch = errors.New("compress: gradient length mismatch")

// Magic bytes distinguishing the compressor formats: the first byte of
// every blob except a Chunked frame, which has none (DESIGN.md §7 has the
// wire tables).
const (
	magicQSGD      = 0x51 // 'Q'
	magicSZ        = 0x5a // 'Z'
	magicCocktail  = 0x43 // 'C'
	magicCOMPSO    = 0x4f // 'O'
	magicLowRank   = 0x4c // 'L'
	magicTorchQSGD = 0x54 // 'T'
)

// decoders routes a magic byte to its format's decoder. Every decode path
// is receiver-stateless (blobs carry their own parameters), so a zero-value
// decoder restores the vector exactly as the originating instance would.
var decoders = map[byte]func([]byte) ([]float32, error){
	magicCOMPSO:    func(b []byte) ([]float32, error) { return (&COMPSO{}).Decompress(b) },
	magicQSGD:      func(b []byte) ([]float32, error) { return (&QSGD{}).Decompress(b) },
	magicSZ:        func(b []byte) ([]float32, error) { return (&SZ{}).Decompress(b) },
	magicCocktail:  func(b []byte) ([]float32, error) { return (&CocktailSGD{}).Decompress(b) },
	magicLowRank:   func(b []byte) ([]float32, error) { return (&PowerSGD{}).Decompress(b) },
	magicTorchQSGD: func(b []byte) ([]float32, error) { return (&TorchQSGD{}).Decompress(b) },
}

// Stateful is the optional contract for compressors that carry per-stream
// state — error-feedback residuals, PowerSGD's warm-started query factors,
// the pinned stream length. Holders of a long-lived Compressor (serve
// sessions, per-layer training streams) should type-assert for Stateful and
// Reset between logical streams instead of special-casing concrete types.
type Stateful interface {
	// Reset drops all stream state; the next Compress starts a fresh
	// stream (and may pin a new gradient length).
	Reset()
	// State returns a diagnostic snapshot of the stream state. The
	// returned value is a deep copy: mutating it never affects the
	// compressor.
	State() any
}

// Restorable is the optional contract for compressors whose stream state
// can be re-installed from a State() snapshot — the checkpoint/restore
// path. Restore accepts exactly the value the same type's State returned
// and must leave the compressor bit-identical to the snapshotted one: the
// next Compress produces the same bytes the original would have. Restore
// rejects snapshots of the wrong type or an incompatible shape with an
// error and leaves the receiver unchanged on failure.
type Restorable interface {
	Stateful
	Restore(state any) error
}

// Decode decompresses a self-describing blob of any format, dispatching on
// the magic byte. Mixed-family streams — e.g. a per-layer compressor plan
// where large layers go low-rank and the rest COMPSO — decode through this
// single entry point.
func Decode(data []byte) ([]float32, error) {
	if _, err := PeekElements(data); err != nil {
		return nil, err
	}
	return decoders[data[0]](data)
}

// Ratio returns the compression ratio achieved for n float32 values
// compressed into len(data) bytes (the paper's CR metric: original bytes /
// compressed bytes).
func Ratio(n int, data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	return float64(4*n) / float64(len(data))
}

// header is the common prefix: magic byte + uvarint element count.
func putHeader(dst []byte, magic byte, n int) []byte {
	dst = append(dst, magic)
	return binary.AppendUvarint(dst, uint64(n))
}

func getHeader(src []byte, magic byte, name string) (n int, rest []byte, err error) {
	if len(src) == 0 {
		return 0, nil, fmt.Errorf("%w: %s: empty buffer", ErrCorrupt, name)
	}
	if src[0] != magic {
		return 0, nil, fmt.Errorf("%w: %s: magic byte %#x", ErrCorrupt, name, src[0])
	}
	v, used := binary.Uvarint(src[1:])
	if used <= 0 || v > 1<<31 {
		return 0, nil, fmt.Errorf("%w: %s: bad element count", ErrCorrupt, name)
	}
	return int(v), src[1+used:], nil
}

// PeekElements parses the common blob header — magic byte plus uvarint
// element count — without decoding the payload. Every decoder sizes its
// output from this untrusted count and bounds each buffer inside it by the
// count or by the blob's own length, so a server that enforces its element
// cap on the peeked value before calling Decompress bounds the decode's
// memory by its cap. Without that check the count alone can demand
// gigabytes from a blob a few dozen bytes long.
func PeekElements(data []byte) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	if decoders[data[0]] == nil {
		return 0, fmt.Errorf("%w: unknown magic byte %#x", ErrCorrupt, data[0])
	}
	n, _, err := getHeader(data, data[0], "blob")
	return n, err
}

// sectionTag prefixes the uvarint length of every section a COMPSO or SZ
// blob frames, and maxSections bounds their count: four byte planes cover
// 32-bit codes.
const (
	sectionTag  = 0xBB
	maxSections = 4
)

// appendSections frames a blob's code sections: a count byte, then each
// section behind its tagged length.
func appendSections(dst []byte, secs ...[]byte) []byte {
	dst = append(dst, byte(len(secs)))
	for _, sec := range secs {
		dst = appendSection(dst, sec)
	}
	return dst
}

// sectionsLen is the number of bytes appendSections adds for secs.
func sectionsLen(secs ...[]byte) int {
	n := 1
	for _, sec := range secs {
		n += 1 + uvarintLen(uint64(len(sec))) + len(sec)
	}
	return n
}

// readSections reads appendSections' framing: at most maxSections
// sections, each bounded by the bytes that remain. The sections are
// subslices of src; bytes after the last are ignored.
func readSections(src []byte, name string) (secs [maxSections][]byte, n int, err error) {
	if len(src) < 1 {
		return secs, 0, fmt.Errorf("%w: %s: truncated section count", ErrCorrupt, name)
	}
	n, src = int(src[0]), src[1:]
	if n > maxSections {
		return secs, 0, fmt.Errorf("%w: %s: %d sections", ErrCorrupt, name, n)
	}
	for i := 0; i < n; i++ {
		if secs[i], src, err = readSection(src, name); err != nil {
			return secs, 0, err
		}
	}
	return secs, n, nil
}

// appendSection appends sec behind its tagged length.
func appendSection(dst, sec []byte) []byte {
	dst = putHeader(dst, sectionTag, len(sec))
	return append(dst, sec...)
}

// readSection reads one tagged section, bounded by src.
func readSection(src []byte, name string) (sec, rest []byte, err error) {
	n, rest, err := getHeader(src, sectionTag, name)
	if err != nil {
		return nil, nil, err
	}
	if n > len(rest) {
		return nil, nil, fmt.Errorf("%w: %s: section of %d bytes overruns %d", ErrCorrupt, name, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// uvarintLen returns the LEB128-encoded size of v in bytes.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		n++
		v >>= 7
	}
	return n
}

// finite reports whether v is neither NaN nor ±Inf, from its exponent bits.
func finite(v float32) bool { return math.Float32bits(v)&0x7f800000 != 0x7f800000 }

// allFinite reports whether src holds no NaN or ±Inf.
func allFinite(src []float32) bool {
	m := quant.MaxAbs(src)
	return !math.IsNaN(m) && !math.IsInf(m, 0)
}

// errNonFinite is the ErrOutOfRange of a family fed a NaN or ±Inf.
func errNonFinite(family string) error {
	return fmt.Errorf("%w: %s: NaN or ±Inf input", ErrOutOfRange, family)
}

func putFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func getFloat64(src []byte, name string) (float64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, fmt.Errorf("%w: %s: truncated float", ErrCorrupt, name)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), src[8:], nil
}
