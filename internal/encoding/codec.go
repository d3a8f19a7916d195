// Package encoding implements the lossless back-end encoders that COMPSO's
// performance model selects among (Table 2 of the paper): rANS, Bitcomp,
// Cascaded, Deflate, Gdeflate, LZ4, Snappy and Zstd — each a from-scratch
// stand-in for its nvCOMP counterpart that preserves the algorithmic class
// (entropy coding vs dictionary matching vs run-length coding), which is
// what determines the compression-ratio and throughput ordering the paper
// reports. The package also provides the Elias-gamma coder used by the QSGD
// baseline and the canonical Huffman coder used by the SZ baseline.
package encoding

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Codec losslessly encodes byte streams. Implementations are stateless and
// safe for concurrent use.
//
// Every stream starts with the uvarint length of what it decodes to, and
// DecodeInto trusts that length no further than the caller does: the output
// is written into dst's storage, and a stream that declares more than
// cap(dst) bytes is rejected with ErrTooLarge before any work. A decoder
// allocates no output of its own, so a caller that knows how long the
// stream must decode to passes a buffer of exactly that capacity and bounds
// the decode's memory by it.
type Codec interface {
	// Name returns the codec's registry name (e.g. "ANS").
	Name() string
	// EncodeAppend appends the encoding of src to dst (nil for a fresh
	// buffer) and returns the extended slice. It never fails;
	// incompressible data may grow slightly.
	EncodeAppend(dst, src []byte) []byte
	// DecodeInto reverses EncodeAppend into dst's storage and returns
	// dst[:n], ignoring len(dst). A stream that declares n > cap(dst) is
	// ErrTooLarge; a truncated or corrupt one is ErrCorrupt.
	DecodeInto(dst, src []byte) ([]byte, error)
}

// ErrCorrupt is wrapped by all decoders when the input cannot have been
// produced by the matching encoder.
var ErrCorrupt = errors.New("encoding: corrupt input")

// ErrTooLarge is wrapped by DecodeInto when a stream declares more bytes
// than the caller's buffer can hold.
var ErrTooLarge = errors.New("encoding: stream larger than the output buffer")

// ErrUnknownCodec is wrapped by ByName when no codec matches the requested
// registry name.
var ErrUnknownCodec = errors.New("encoding: unknown codec")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// registry holds the codecs in Table 2 order, and a codec's index here is
// its id: the byte a COMPSO blob stores to name its codec. Ids are part of
// the wire format, so a new codec is appended and no entry moves.
var registry = []Codec{
	ANS{},
	Bitcomp{},
	Cascaded{},
	Deflate{},
	Gdeflate{},
	LZ4{},
	Snappy{},
	Zstd{},
}

// All returns the Table 2 codec set in the paper's order (ANS, Bitcomp,
// Cascaded, Deflate, Gdeflate, LZ4, Snappy, Zstd). The returned slice is a
// copy and may be reordered by the caller.
func All() []Codec {
	out := make([]Codec, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the codec with the given registry name, matched
// case-insensitively ("zstd" is Zstd). Unknown names return an error
// wrapping ErrUnknownCodec.
func ByName(name string) (Codec, error) {
	for _, c := range registry {
		if strings.EqualFold(c.Name(), name) {
			return c, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownCodec, name, names)
}

// ID returns the wire id of c, matched by its registry name.
func ID(c Codec) (byte, error) {
	name := c.Name()
	for i, r := range registry {
		if r.Name() == name {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("%w %q has no id", ErrUnknownCodec, name)
}

// ByID returns the codec with wire id id.
func ByID(id byte) (Codec, error) {
	if int(id) >= len(registry) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
	}
	return registry[id], nil
}

// Names lists the registered codec names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, c := range registry {
		out[i] = c.Name()
	}
	return out
}

// putUvarint appends v to dst in LEB128 form and returns the extended slice.
func putUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// decodeHeader reads the uvarint length a stream starts with and returns
// dst resliced to it and the rest of src. A length over cap(dst) is
// ErrTooLarge, so the caller does no work for it.
func decodeHeader(dst, src []byte, name string) (out, rest []byte, err error) {
	n, w, err := getUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(cap(dst)) {
		return nil, nil, fmt.Errorf("%w: %s stream of %d bytes, buffer holds %d", ErrTooLarge, name, n, cap(dst))
	}
	return dst[:n], src[w:], nil
}

// getUvarint reads a LEB128 value from src, returning the value and the
// number of bytes consumed (0 with an error on truncation/overflow).
func getUvarint(src []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range src {
		if shift >= 64 {
			return 0, 0, corruptf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i + 1, nil
		}
		shift += 7
	}
	return 0, 0, corruptf("truncated uvarint")
}
