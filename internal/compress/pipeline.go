package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"

	"compso/internal/pool"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// This file holds the pipeline-shape variants used by the GPU performance
// study (Figure 8): a deliberately multi-pass "framework-style" QSGD that
// reproduces the kernel-per-op behaviour the paper measures for the PyTorch
// baselines, and a Chunked wrapper that mirrors the thread-block data
// parallelism of the fused CUDA implementations.

// TorchQSGD is QSGD implemented the way a tensor framework executes it: one
// full pass and one temporary buffer per conceptual kernel (abs, max,
// divide, round, clamp, zig-zag, encode). The arithmetic is identical to
// QSGD; only the memory traffic differs — which is exactly the paper's
// explanation for the PyTorch baselines' low throughput in Figure 8
// ("PyTorch launches multiple kernels for CUDA tensor operations").
type TorchQSGD struct {
	Bits int
	rng  *rand.Rand
}

// NewTorchQSGD returns the multi-pass QSGD variant.
func NewTorchQSGD(bitWidth int, seed int64) *TorchQSGD {
	return &TorchQSGD{Bits: bitWidth, rng: xrand.NewSeeded(seed)}
}

// Name implements Compressor.
func (t *TorchQSGD) Name() string { return fmt.Sprintf("QSGD-%dbit (torch)", t.Bits) }

// Compress implements Compressor. Each stage still materializes its result
// in its own full-length buffer — the kernel-per-op dispatch pattern under
// measurement must keep its memory traffic — but the buffers now come from
// the arena, mirroring how a framework's caching allocator serves each
// kernel's temporary without hitting the system allocator.
func (t *TorchQSGD) Compress(src []float32) ([]byte, error) {
	// Bits parameterizes a shift below: an out-of-range width silently
	// produced a garbage quantization grid instead of failing. 2..32 bits
	// spans the representable signed level ranges.
	if t.Bits < 2 || t.Bits > 32 {
		return nil, fmt.Errorf("compress: TorchQSGD bit width %d out of range [2,32]", t.Bits)
	}
	n := len(src)
	// Kernel 1: abs.
	absV := pool.F64(n)
	for i, v := range src {
		absV[i] = math.Abs(float64(v))
	}
	// Kernel 2: max reduction.
	var maxAbs float64
	for _, v := range absV {
		if v > maxAbs {
			maxAbs = v
		}
	}
	pool.PutF64(absV)
	maxLevel := float64(int64(1)<<(t.Bits-1) - 1)
	scale := 0.0
	if maxAbs > 0 {
		scale = maxAbs / maxLevel
	}
	// Kernel 3: divide.
	scaled := pool.F64(n)
	if scale > 0 {
		for i, v := range src {
			scaled[i] = float64(v) / scale
		}
	} else {
		clear(scaled)
	}
	// Kernel 4: stochastic round.
	rounded := pool.F64(n)
	for i, x := range scaled {
		fl := math.Floor(x)
		if t.rng.Float64() < x-fl {
			rounded[i] = fl + 1
		} else {
			rounded[i] = fl
		}
	}
	pool.PutF64(scaled)
	// Kernel 5: clamp.
	clamped := pool.F64(n)
	for i, x := range rounded {
		clamped[i] = math.Max(-maxLevel, math.Min(maxLevel, x))
	}
	pool.PutF64(rounded)
	// Kernel 6: cast to levels (zig-zagged, the packer's symbol domain).
	zigs := pool.U32(n)
	var maxZig uint32
	for i, x := range clamped {
		z := quant.ZigZag(int32(x))
		zigs[i] = z
		if z > maxZig {
			maxZig = z
		}
	}
	pool.PutF64(clamped)
	// Kernel 7: pack/encode (host-side in frameworks).
	packed := quant.PackZigs(pool.Bytes(n*t.Bits/8+16), zigs, maxZig)
	pool.PutU32(zigs)
	out := make([]byte, 0, binary.MaxVarintLen64+9+len(packed))
	out = putHeader(out, magicTorchQSGD, n)
	out = putFloat64(out, scale)
	out = append(out, packed...)
	pool.PutBytes(packed)
	return out, nil
}

// Decompress implements Compressor.
func (t *TorchQSGD) Decompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicTorchQSGD, "TorchQSGD")
	if err != nil {
		return nil, err
	}
	scale, rest, err := getFloat64(rest, "TorchQSGD")
	if err != nil {
		return nil, err
	}
	levels, err := quant.UnpackCodes(rest)
	if err != nil {
		return nil, fmt.Errorf("%w: TorchQSGD: %v", ErrCorrupt, err)
	}
	if len(levels) != n {
		return nil, fmt.Errorf("%w: TorchQSGD: %d levels for %d values", ErrCorrupt, len(levels), n)
	}
	return quant.DequantizeFixed(levels, scale), nil
}

// Chunked runs an inner compressor over fixed-size blocks of the input in
// parallel, mirroring the thread-block decomposition of the fused CUDA
// kernels (§4.5): each block computes its own extrema locally (the
// block-reduction + warp-shuffle optimization) and compresses
// independently, so the whole pipeline is a single parallel pass.
type Chunked struct {
	// New creates the per-worker inner compressor; it must produce
	// decompressors compatible with the compressed chunks (same settings).
	New func(seed int64) Compressor
	// ChunkSize is the number of float32 elements per block.
	ChunkSize int
	// Workers bounds parallelism (defaults to GOMAXPROCS).
	Workers int
	// Seed namespaces the per-chunk RNG seeds.
	Seed int64
}

// Name implements Compressor.
func (c *Chunked) Name() string { return c.New(0).Name() + " (chunked)" }

func (c *Chunked) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return pool.Workers()
}

// Compress implements Compressor.
func (c *Chunked) Compress(src []float32) ([]byte, error) {
	if c.ChunkSize <= 0 {
		return nil, fmt.Errorf("compress: Chunked chunk size %d", c.ChunkSize)
	}
	nChunks := (len(src) + c.ChunkSize - 1) / c.ChunkSize
	if nChunks == 0 {
		nChunks = 1
	}
	// Chunks fan out over the process-wide bounded worker pool instead of
	// one goroutine per chunk; results are index-addressed, so the schedule
	// cannot affect the output bytes.
	parts := make([][]byte, nChunks)
	errs := make([]error, nChunks)
	pool.ParallelFor(nChunks, c.workers(), func(i int) {
		lo := i * c.ChunkSize
		hi := min(lo+c.ChunkSize, len(src))
		comp := c.New(c.Seed + int64(i))
		parts[i], errs[i] = comp.Compress(src[lo:hi])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := binary.AppendUvarint(nil, uint64(len(src)))
	out = binary.AppendUvarint(out, uint64(c.ChunkSize))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for _, p := range parts {
		out = binary.AppendUvarint(out, uint64(len(p)))
	}
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Decompress implements Compressor. The header self-describes the chunk
// geometry (total, chunk size, chunk count) and every field is checked
// against the decompressor's own configuration and the real invariant
// nChunks == ceil(total/ChunkSize) — a corrupted or truncated buffer must
// fail loudly, never mis-slice or over-allocate.
func (c *Chunked) Decompress(data []byte) ([]float32, error) {
	if c.ChunkSize <= 0 {
		return nil, fmt.Errorf("compress: Chunked chunk size %d", c.ChunkSize)
	}
	total, used := binary.Uvarint(data)
	if used <= 0 || total > 1<<31 {
		return nil, fmt.Errorf("%w: Chunked: bad total", ErrCorrupt)
	}
	data = data[used:]
	chunkSize, used := binary.Uvarint(data)
	if used <= 0 || chunkSize != uint64(c.ChunkSize) {
		return nil, fmt.Errorf("%w: Chunked: header chunk size %d, configured %d", ErrCorrupt, chunkSize, c.ChunkSize)
	}
	data = data[used:]
	nChunks, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("%w: Chunked: bad chunk count", ErrCorrupt)
	}
	// The chunk count is fully determined by the header: ceil(total/
	// ChunkSize), with the empty input carried as one empty chunk. The old
	// nChunks <= total+1 bound admitted wildly inconsistent headers.
	want := (total + chunkSize - 1) / chunkSize
	if want == 0 {
		want = 1
	}
	if nChunks != want {
		return nil, fmt.Errorf("%w: Chunked: %d chunks for %d values of chunk size %d, want %d",
			ErrCorrupt, nChunks, total, chunkSize, want)
	}
	data = data[used:]
	sizes := make([]int, nChunks)
	for i := range sizes {
		s, used := binary.Uvarint(data)
		// Bound each entry in uint64 space before the int cast: a huge
		// varint would overflow int and slip past signed comparisons.
		if used <= 0 || s > uint64(len(data)) {
			return nil, fmt.Errorf("%w: Chunked: bad size table entry %d", ErrCorrupt, i)
		}
		data = data[used:]
		sizes[i] = int(s)
	}
	parts := make([][]byte, nChunks)
	payloadBytes := uint64(0)
	for i, s := range sizes {
		if s > len(data) {
			return nil, fmt.Errorf("%w: Chunked: chunk %d overruns", ErrCorrupt, i)
		}
		parts[i] = data[:s]
		data = data[s:]
		payloadBytes += uint64(s)
	}
	// Every byte of the buffer must be spoken for: trailing garbage after
	// the last chunk means the frame is not what the header claims.
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: Chunked: %d trailing bytes", ErrCorrupt, len(data))
	}
	// Cap the allocation hint by what the payload could plausibly decode
	// to; the final length check below still enforces the exact total.
	hint := total
	if bound := (payloadBytes + 1) * 64; hint > bound {
		hint = bound
	}
	out := make([]float32, 0, hint)
	results := make([][]float32, nChunks)
	errs := make([]error, nChunks)
	pool.ParallelFor(int(nChunks), c.workers(), func(i int) {
		comp := c.New(c.Seed + int64(i))
		results[i], errs[i] = comp.Decompress(parts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, r := range results {
		out = append(out, r...)
	}
	if uint64(len(out)) != total {
		return nil, fmt.Errorf("%w: Chunked: decoded %d values, want %d", ErrCorrupt, len(out), total)
	}
	return out, nil
}
