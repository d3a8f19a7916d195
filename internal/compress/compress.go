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

// ErrLengthMismatch marks a stateful compressor fed a gradient whose length
// differs from the length its stream state was built for (e.g. an
// error-feedback residual). It is a caller error, not an internal fault.
var ErrLengthMismatch = errors.New("compress: gradient length mismatch")

// Magic bytes distinguishing the compressor formats; the first header byte
// of every compressed buffer.
const (
	magicQSGD     = 0x51 // 'Q'
	magicSZ       = 0x5a // 'Z'
	magicCocktail = 0x43 // 'C'
	magicCOMPSO   = 0x4f // 'O'
	magicLowRank  = 0x4c // 'L'
)

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

// Decode decompresses a self-describing blob from any registered family,
// dispatching on the magic byte. Every family's decode path is
// receiver-stateless (blobs carry their own parameters), so a zero-value
// decoder restores the vector exactly as the originating instance would.
// Mixed-family streams — e.g. a per-layer compressor plan where large
// layers go low-rank and the rest COMPSO — decode through this single
// entry point.
func Decode(data []byte) ([]float32, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	switch data[0] {
	case magicCOMPSO:
		return (&COMPSO{}).Decompress(data)
	case magicQSGD:
		return (&QSGD{}).Decompress(data)
	case magicSZ:
		return (&SZ{}).Decompress(data)
	case magicCocktail:
		return (&CocktailSGD{}).Decompress(data)
	case magicLowRank:
		return (&PowerSGD{}).Decompress(data)
	default:
		return nil, fmt.Errorf("%w: unknown magic byte %#x", ErrCorrupt, data[0])
	}
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
	switch data[0] {
	case magicQSGD, magicSZ, magicCocktail, magicCOMPSO, magicLowRank:
	default:
		return 0, fmt.Errorf("%w: unknown magic byte %#x", ErrCorrupt, data[0])
	}
	n, _, err := getHeader(data, data[0], "blob")
	return n, err
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
