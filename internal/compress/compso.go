package compress

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"compso/internal/bitstream"
	"compso/internal/encoding"
	"compso/internal/obs"
	"compso/internal/pool"
	"compso/internal/quant"
	"compso/internal/xrand"
)

// COMPSO is the paper's compressor (§4.3, Algorithm 1, Figure 4a):
//
//  1. Filter (lossy): values with |v| < EBFilter are dropped and recorded
//     in a bitmap.
//  2. Error-bounded stochastic-rounding quantization (lossy) of the kept
//     values under EBQuant, packed at the minimal bit width.
//  3. Lossless encoding of both the bitmap and the packed code stream with
//     the selected back-end codec (ANS by default; the performance model
//     can switch it per model).
//
// Unlike fixed-rate quantizers, both error bounds are tunable per
// iteration: the iteration-wise adaptive controller (package compso) runs
// filter+SR with loose bounds early in training and SR-only with tight
// bounds near convergence.
type COMPSO struct {
	// EBFilter is the filter error bound eb_f; values below it are zeroed.
	// Ignored when FilterEnabled is false.
	EBFilter float64
	// EBQuant is the stochastic-rounding error bound eb_q.
	EBQuant float64
	// FilterEnabled selects the aggressive (filter+SR) vs conservative
	// (SR-only) strategy of Algorithm 1.
	FilterEnabled bool
	// Codec is the lossless back-end encoder (nil defaults to ANS).
	Codec encoding.Codec
	// Rounding selects the quantizer's rounding mode. The paper's design
	// choice is stochastic rounding (the default); RN and P0.5 exist for
	// the §4.2 ablation.
	Rounding quant.Mode
	// BitPacked selects §4.3's dense bit packing of quantization codes
	// instead of the default byte-plane layout. Byte planes entropy-code
	// better (symbols stay byte-aligned); bit packing is the ablation.
	BitPacked bool
	// LastFilterTotal and LastFilterKept report the most recent Compress
	// call's filter outcome: how many input values it saw and how many
	// survived the filter (all of them when the filter is disabled). The
	// observability layer reads these to derive the filter hit rate.
	LastFilterTotal int
	LastFilterKept  int
	// Obs, when non-nil, receives per-call compression metrics: the
	// "compress/calls" counter and the "compress/ratio" and
	// "compress/filter_hit_rate" histograms. Nil costs nothing.
	Obs *obs.Recorder
	rng *rand.Rand
	// src is the PCG behind rng when the compressor was built by
	// NewCOMPSO/Reseed. The fused kernels draw from it directly (same
	// stream, no rand.Source dispatch); nil falls back to rng.
	src *rand.PCG
	// seed0 remembers the construction (or last Reseed) seed so Reset can
	// restart the stochastic-rounding stream from its beginning.
	seed0 int64
}

// NewCOMPSO returns a COMPSO compressor in aggressive mode with the paper's
// default bounds (eb_f = eb_q = 4e-3) and the ANS back-end.
func NewCOMPSO(seed int64) *COMPSO {
	src := xrand.NewPCG(seed)
	return &COMPSO{
		EBFilter:      4e-3,
		EBQuant:       4e-3,
		FilterEnabled: true,
		Codec:         encoding.ANS{},
		Rounding:      quant.SR,
		rng:           rand.New(src),
		src:           src,
		seed0:         seed,
	}
}

// Name implements Compressor.
func (c *COMPSO) Name() string { return "COMPSO" }

// Reseed replaces the stochastic-rounding RNG with a fresh deterministic
// stream. The options facade uses it to make per-rank seeding orthogonal to
// the other construction options.
func (c *COMPSO) Reseed(seed int64) {
	c.src = xrand.NewPCG(seed)
	c.rng = rand.New(c.src)
	c.seed0 = seed
}

// COMPSOState is the State() snapshot: the exact position of the
// stochastic-rounding PCG stream as rand.PCG MarshalBinary bytes (nil when
// the compressor was built without a seeded stream, e.g. a zero-value
// decoder). The byte blob is a deep copy.
type COMPSOState struct {
	RNG []byte
}

// Reset implements Stateful: the stochastic-rounding stream restarts from
// the construction (or last Reseed) seed and the filter diagnostics clear.
// Zero-value compressors without a seeded stream have no state to drop.
func (c *COMPSO) Reset() {
	if c.src != nil {
		c.Reseed(c.seed0)
	}
	c.LastFilterTotal, c.LastFilterKept = 0, 0
}

// State implements Stateful. The only stream state COMPSO carries is the
// RNG position — the filter/quantizer are otherwise memoryless per call.
func (c *COMPSO) State() any {
	st := COMPSOState{}
	if c.src != nil {
		// rand.PCG.MarshalBinary never fails and returns fresh bytes.
		b, err := c.src.MarshalBinary()
		if err != nil {
			panic(fmt.Sprintf("compress: COMPSO PCG marshal: %v", err))
		}
		st.RNG = b
	}
	return st
}

// Restore implements Restorable: it re-installs a State() snapshot so the
// stochastic-rounding stream continues from exactly the snapshotted
// position.
func (c *COMPSO) Restore(state any) error {
	st, ok := state.(COMPSOState)
	if !ok {
		if p, ok2 := state.(*COMPSOState); ok2 {
			st = *p
		} else {
			return fmt.Errorf("compress: COMPSO restore: snapshot type %T", state)
		}
	}
	if st.RNG == nil {
		if c.src != nil {
			return fmt.Errorf("compress: COMPSO restore: snapshot has no RNG stream but compressor is seeded")
		}
		return nil
	}
	src := &rand.PCG{}
	if err := src.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("compress: COMPSO restore: %w", err)
	}
	c.src = src
	c.rng = rand.New(src)
	return nil
}

// compsoBlob is a COMPSO blob's framing: the header fields, then the
// encoded filter bitmap and code sections it carries. appendTo writes it and
// parseCOMPSO reads it — the one writer and the one reader of the format
// (DESIGN.md §7), for the fused and the reference pipelines alike.
type compsoBlob struct {
	n, kept   int
	filter    bool
	codecID   byte
	codec     encoding.Codec
	bitPacked bool
	rounding  quant.Mode
	ebf, ebq  float64
	bitmap    []byte              // the encoded bitmap (empty without the filter)
	sections  [maxSections][]byte // encoded byte planes, or one bit-packed stream
	nSections int
}

// header validates c's configuration and returns the blob fields it fixes
// for n inputs: all but the kept count and the sections.
func (c *COMPSO) header(n int) (compsoBlob, error) {
	if c.EBQuant <= 0 {
		return compsoBlob{}, fmt.Errorf("compress: COMPSO quantizer bound %g <= 0", c.EBQuant)
	}
	if c.FilterEnabled && c.EBFilter <= 0 {
		return compsoBlob{}, fmt.Errorf("compress: COMPSO filter bound %g <= 0", c.EBFilter)
	}
	cdc := c.Codec
	if cdc == nil {
		cdc = encoding.ANS{}
	}
	id, err := encoding.ID(cdc)
	if err != nil {
		return compsoBlob{}, fmt.Errorf("compress: COMPSO: %w", err)
	}
	return compsoBlob{n: n, filter: c.FilterEnabled, codecID: id, codec: cdc, bitPacked: c.BitPacked,
		rounding: c.Rounding, ebf: c.EBFilter, ebq: c.EBQuant}, nil
}

// size is the length appendTo writes.
func (b *compsoBlob) size() int {
	return uvarintLen(uint64(b.n)) + 21 + uvarintLen(uint64(b.kept)) +
		1 + uvarintLen(uint64(len(b.bitmap))) + len(b.bitmap) + sectionsLen(b.sections[:b.nSections]...)
}

// appendTo appends the blob: magic and element count, the filter flag, codec
// id and options byte (bit 0 bit-packed, bits 1-2 rounding mode), both
// bounds, the tagged kept count, the bitmap section and the code sections.
func (b *compsoBlob) appendTo(dst []byte) []byte {
	dst = putHeader(dst, magicCOMPSO, b.n)
	var filter, options byte
	if b.filter {
		filter = 1
	}
	if b.bitPacked {
		options = 1
	}
	options |= byte(b.rounding) << 1
	dst = append(dst, filter, b.codecID, options)
	dst = putFloat64(dst, b.ebf)
	dst = putFloat64(dst, b.ebq)
	dst = putHeader(dst, sectionTag, b.kept)
	dst = appendSection(dst, b.bitmap)
	return appendSections(dst, b.sections[:b.nSections]...)
}

// parseCOMPSO reads appendTo's layout and checks every field against the
// bound decode relies on; the sections stay encoded, as subslices of data.
func parseCOMPSO(data []byte) (b compsoBlob, err error) {
	n, rest, err := getHeader(data, magicCOMPSO, "COMPSO")
	if err != nil {
		return b, err
	}
	if len(rest) < 3 {
		return b, fmt.Errorf("%w: COMPSO: truncated flags", ErrCorrupt)
	}
	b.n, b.filter, b.codecID = n, rest[0] != 0, rest[1]
	b.bitPacked, b.rounding = rest[2]&1 != 0, quant.Mode(rest[2]>>1)
	if b.rounding > quant.P05 {
		return b, fmt.Errorf("%w: COMPSO: rounding mode %d", ErrCorrupt, b.rounding)
	}
	if b.codec, err = encoding.ByID(b.codecID); err != nil {
		return b, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
	}
	if b.ebf, rest, err = getFloat64(rest[3:], "COMPSO ebf"); err != nil {
		return b, err
	}
	if b.ebq, rest, err = getFloat64(rest, "COMPSO ebq"); err != nil {
		return b, err
	}
	if b.ebq <= 0 {
		return b, fmt.Errorf("%w: COMPSO: quantizer bound %g", ErrCorrupt, b.ebq)
	}
	if b.kept, rest, err = getHeader(rest, sectionTag, "COMPSO kept count"); err != nil {
		return b, err
	}
	if b.kept > n {
		return b, fmt.Errorf("%w: COMPSO: kept count %d > %d", ErrCorrupt, b.kept, n)
	}
	if b.bitmap, rest, err = readSection(rest, "COMPSO bitmap"); err != nil {
		return b, err
	}
	if b.sections, b.nSections, err = readSections(rest, "COMPSO"); err != nil {
		return b, err
	}
	if b.bitPacked && b.nSections != 1 {
		return b, fmt.Errorf("%w: COMPSO: bit-packed stream with %d sections", ErrCorrupt, b.nSections)
	}
	return b, nil
}

// COMPSOStreams returns the codec of a COMPSO blob and the encoded streams
// it carries — the bitmap when the filter ran, then each code section — as
// subslices of blob, so the codecs can be exercised on real sections.
func COMPSOStreams(blob []byte) (encoding.Codec, [][]byte, error) {
	b, err := parseCOMPSO(blob)
	if err != nil {
		return nil, nil, err
	}
	var streams [][]byte
	if b.filter {
		streams = append(streams, b.bitmap)
	}
	return b.codec, append(streams, b.sections[:b.nSections]...), nil
}

// Compress implements Compressor. It is the fused single-pass rewrite of
// the pipeline (§4.5's kernel fusion): one kernel walks the input once,
// producing the filter bitmap and the zig-zagged quantization codes
// together, and every downstream section (bitmap, byte planes or the packed
// stream) is encoded into one pooled scratch buffer — no intermediate
// []float32 kept-value slice, no []int32 code vector, no per-plane or
// per-section []byte materialization. The emitted blob is byte-identical to
// ReferenceCompress given the same state (the multi-pass original preserved
// in reference.go), which TestCOMPSOFusedMatchesReference enforces. NaN or
// ±Inf input, which the fused pass finds, fails with ErrOutOfRange.
func (c *COMPSO) Compress(src []float32) ([]byte, error) {
	n := len(src)
	b, err := c.header(n)
	if err != nil {
		return nil, err
	}
	binW := quant.BinWidth(c.EBQuant, c.Rounding)

	// Single fused pass: filter + quantize + zig-zag, tracking the max code
	// so the plane count / pack width needs no second scan.
	zigs := pool.U32(n)
	var bitmap []byte // nil when the filter is off (encoded as an empty stream)
	kept := n
	var maxZig uint32
	if c.FilterEnabled {
		bitmap = pool.Bytes((n + 7) / 8)
		if c.Rounding == quant.SR && c.src != nil {
			kept, maxZig = quant.FilterQuantizeZigPCG(bitmap, zigs, src, c.EBFilter, binW, c.src)
		} else {
			kept, maxZig = quant.FilterQuantizeZig(bitmap, zigs, src, c.EBFilter, binW, c.Rounding, c.rng)
		}
	} else if c.Rounding == quant.SR && c.src != nil {
		maxZig = quant.QuantizeZigIntoPCG(zigs, src, binW, c.src)
	} else {
		maxZig = quant.QuantizeZigInto(zigs, src, binW, c.Rounding, c.rng)
	}
	c.LastFilterTotal = n
	c.LastFilterKept = kept
	if maxZig == quant.NonFinite && !allFinite(src) {
		pool.PutU32(zigs)
		if bitmap != nil {
			pool.PutBytes(bitmap)
		}
		return nil, errNonFinite("COMPSO")
	}
	zigs = zigs[:kept]
	b.kept = kept

	// Encode every section back to back into one pooled scratch, recording
	// cumulative boundaries, so the final blob is cut with a single
	// exact-size allocation. The original arena handle is kept because
	// EncodeAppend may grow scratch onto a fresh heap array: only the
	// handle goes back to the pool — returning the grown slice would hand
	// the arena a foreign buffer and leak the pooled one.
	scratchBuf := pool.Bytes(n/2 + 64)
	scratch := scratchBuf[:0]
	scratch = b.codec.EncodeAppend(scratch, bitmap)
	if bitmap != nil {
		pool.PutBytes(bitmap)
	}
	bitmapEnd := len(scratch)

	var ends [maxSections]int // cumulative section ends within scratch
	if c.BitPacked {
		// §4.3 ablation: dense bit packing in a single plane-like section.
		// Wide codes (width > 8 bits) overflow the kept+16 guess and make
		// PackZigs grow onto a fresh array, so Put the original handle.
		packedBuf := pool.Bytes(kept + 16)
		packed := quant.PackZigs(packedBuf, zigs, maxZig)
		scratch = b.codec.EncodeAppend(scratch, packed)
		pool.PutBytes(packedBuf)
		b.nSections = 1
		ends[0] = len(scratch)
	} else {
		// Byte-plane layout: entropy coders get byte-aligned symbol streams
		// (plane 0 carries the low bytes where the distribution skew lives,
		// higher planes are near-constant zero and collapse to almost
		// nothing). One pooled plane buffer is reused across all planes.
		b.nSections = quant.PlaneCount(maxZig)
		plane := pool.Bytes(kept)
		for p := 0; p < b.nSections; p++ {
			quant.FillPlane(plane, zigs, p)
			scratch = b.codec.EncodeAppend(scratch, plane)
			ends[p] = len(scratch)
		}
		pool.PutBytes(plane)
	}
	pool.PutU32(zigs)

	b.bitmap = scratch[:bitmapEnd]
	prev := bitmapEnd
	for p := 0; p < b.nSections; p++ {
		b.sections[p] = scratch[prev:ends[p]]
		prev = ends[p]
	}
	out := b.appendTo(make([]byte, 0, b.size()))
	pool.PutBytes(scratchBuf)
	c.observe(n, len(out))
	return out, nil
}

// observe feeds the attached recorder (if any) with one Compress call's
// metrics.
func (c *COMPSO) observe(nIn, nOut int) {
	if c.Obs == nil {
		return
	}
	c.Obs.Counter("compress/calls").Inc()
	if nIn > 0 && nOut > 0 {
		c.Obs.Histogram("compress/ratio").Observe(float64(4*nIn) / float64(nOut))
	}
	if c.LastFilterTotal > 0 {
		c.Obs.Histogram("compress/filter_hit_rate").
			Observe(1 - float64(c.LastFilterKept)/float64(c.LastFilterTotal))
	}
}

// Decompress implements Compressor. The fused decode path mirrors Compress:
// sections decode into pooled scratch, and one fused loop joins the byte
// planes (or reads the packed stream), dequantizes, and restores the
// filtered zeros directly into the output slice — no []int32 code vector or
// intermediate []float32 kept-value slice. It returns exactly the values
// (and errors, modulo message wording) of the multi-pass
// ReferenceDecompress.
func (c *COMPSO) Decompress(data []byte) ([]float32, error) {
	b, err := parseCOMPSO(data)
	if err != nil {
		return nil, err
	}
	n, keptCount, cdc := b.n, b.kept, b.codec
	bitPacked, nPlanes := b.bitPacked, b.nSections
	// Pooled scratch handed back on every exit path.
	var scratches [][]byte
	defer func() {
		for _, s := range scratches {
			pool.PutBytes(s)
		}
	}()
	var bitmap []byte
	if b.filter {
		buf := pool.Bytes((n + 7) / 8)
		scratches = append(scratches, buf)
		bitmap, err = cdc.DecodeInto(buf[:0:len(buf)], b.bitmap)
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO bitmap: %v", ErrCorrupt, err)
		}
	}

	// Obtain the zig-zag code stream: either the dense packed section or up
	// to four decoded byte planes (joined lazily in the fused output loop).
	var zigs []uint32 // bit-packed path only
	var planes [maxSections][]byte
	if bitPacked {
		buf := pool.Bytes(packedLen(keptCount))
		scratches = append(scratches, buf)
		packed, err := cdc.DecodeInto(buf[:0:len(buf)], b.sections[0])
		if err != nil {
			return nil, fmt.Errorf("%w: COMPSO packed: %v", ErrCorrupt, err)
		}
		zigs = pool.U32(keptCount)
		defer pool.PutU32(zigs)
		if err := unpackZigsInto(zigs, packed, keptCount); err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
	} else {
		for p := 0; p < nPlanes; p++ {
			buf := pool.Bytes(keptCount)
			scratches = append(scratches, buf)
			planes[p], err = cdc.DecodeInto(buf[:0:len(buf)], b.sections[p])
			if err != nil {
				return nil, fmt.Errorf("%w: COMPSO plane %d: %v", ErrCorrupt, p, err)
			}
			if len(planes[p]) != keptCount {
				return nil, fmt.Errorf("%w: COMPSO: plane %d has %d bytes, want %d", ErrCorrupt, p, len(planes[p]), keptCount)
			}
		}
	}
	binW := quant.BinWidth(b.ebq, b.rounding)
	out := make([]float32, n)
	// One or two byte planes cover every real gradient stream; there the
	// low byte dequantizes through a 256-entry table built with the exact
	// DequantizeZig arithmetic, and the near-constant-zero high plane falls
	// back to the full computation only when its byte is set.
	var lut [256]float32
	var p0, p1 []byte
	fastPlanes := !bitPacked && (nPlanes == 1 || nPlanes == 2)
	if fastPlanes {
		for z := range lut {
			lut[z] = quant.DequantizeZig(uint32(z), binW)
		}
		p0 = planes[0]
		if nPlanes == 2 {
			p1 = planes[1]
		}
	}
	if !b.filter {
		if keptCount != n {
			return nil, fmt.Errorf("%w: COMPSO: %d values for %d elements", ErrCorrupt, keptCount, n)
		}
		switch {
		case bitPacked:
			for i, z := range zigs {
				out[i] = quant.DequantizeZig(z, binW)
			}
		case nPlanes == 1:
			for i, b := range p0 {
				out[i] = lut[b]
			}
		case nPlanes == 2:
			for i := 0; i < n; i++ {
				if hi := p1[i]; hi != 0 {
					out[i] = quant.DequantizeZig(uint32(p0[i])|uint32(hi)<<8, binW)
				} else {
					out[i] = lut[p0[i]]
				}
			}
		case nPlanes == 0:
			// Every code is zero; out is already zero-valued.
		default:
			for i := 0; i < n; i++ {
				var z uint32
				for p := 0; p < nPlanes; p++ {
					z |= uint32(planes[p][i]) << (8 * p)
				}
				out[i] = quant.DequantizeZig(z, binW)
			}
		}
		return out, nil
	}
	// Fused dequantize + filter-restore, with filter.Restore's validation.
	if len(bitmap) < (n+7)/8 {
		return nil, fmt.Errorf("%w: COMPSO: bitmap of %d bytes too short for %d values", ErrCorrupt, len(bitmap), n)
	}
	k := 0
	if fastPlanes {
		// Word-at-a-time restore: 64 bitmap bits load as one little-endian
		// word, and the kept positions are walked by iterating the zero bits
		// with TrailingZeros64 — the loop runs once per kept value (plus once
		// per word), not once per bit with a data-dependent branch.
		nw := n >> 6
		for wi := 0; wi < nw; wi++ {
			b := bitmap[wi<<3 : wi<<3+8]
			inv := ^(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
			if inv == 0 {
				continue
			}
			base := wi << 6
			if k+64 > keptCount && k+bits.OnesCount64(inv) > keptCount {
				return nil, fmt.Errorf("%w: COMPSO: bitmap expects more than %d kept values", ErrCorrupt, keptCount)
			}
			for inv != 0 {
				j := bits.TrailingZeros64(inv)
				inv &= inv - 1
				z := uint32(p0[k])
				if p1 != nil {
					if hi := p1[k]; hi != 0 {
						out[base+j] = quant.DequantizeZig(z|uint32(hi)<<8, binW)
						k++
						continue
					}
				}
				out[base+j] = lut[z]
				k++
			}
		}
		for i := nw << 6; i < n; i++ {
			if bitmap[i>>3]&(1<<(i&7)) == 0 {
				if k >= keptCount {
					return nil, fmt.Errorf("%w: COMPSO: bitmap expects more than %d kept values", ErrCorrupt, keptCount)
				}
				z := uint32(p0[k])
				if p1 != nil {
					z |= uint32(p1[k]) << 8
				}
				out[i] = quant.DequantizeZig(z, binW)
				k++
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if bitmap[i>>3]&(1<<(i&7)) != 0 {
				continue // filtered → zero
			}
			if k >= keptCount {
				return nil, fmt.Errorf("%w: COMPSO: bitmap expects more than %d kept values", ErrCorrupt, keptCount)
			}
			var z uint32
			if bitPacked {
				z = zigs[k]
			} else {
				for p := 0; p < nPlanes; p++ {
					z |= uint32(planes[p][k]) << (8 * p)
				}
			}
			out[i] = quant.DequantizeZig(z, binW)
			k++
		}
	}
	if k != keptCount {
		return nil, fmt.Errorf("%w: COMPSO: %d kept values unused (bitmap expects %d)", ErrCorrupt, keptCount-k, k)
	}
	return out, nil
}

// unpackZigsInto reads a PackCodes-format stream into dst, enforcing that it
// holds exactly want codes — the UnpackCodes validation without the []int32
// materialization.
func unpackZigsInto(dst []uint32, packed []byte, want int) error {
	r := bitstream.NewReader(packed)
	cnt, err := r.ReadUvarint()
	if err != nil {
		return fmt.Errorf("unpack count: %v", err)
	}
	if cnt > 1<<31 {
		return fmt.Errorf("implausible code count %d", cnt)
	}
	width64, err := r.ReadBits(6)
	if err != nil {
		return fmt.Errorf("unpack width: %v", err)
	}
	if width64 > 32 {
		return fmt.Errorf("invalid code width %d", width64)
	}
	if int(cnt) != want {
		return fmt.Errorf("%d codes for %d kept", cnt, want)
	}
	width := uint(width64)
	for i := 0; i < want; i++ {
		z, err := r.ReadBits(width)
		if err != nil {
			return fmt.Errorf("unpack code %d: %v", i, err)
		}
		dst[i] = uint32(z)
	}
	return nil
}

// packedLen bounds the bit-packed section of kept codes: PackZigs's uvarint
// count and 6-bit width, then kept codes of at most 32 bits each.
func packedLen(kept int) int { return uvarintLen(uint64(kept)) + 1 + 4*kept }

// MaxError returns the worst-case pointwise error of the current
// configuration: filtered values err by up to EBFilter, quantized ones by
// up to EBQuant.
func (c *COMPSO) MaxError() float64 {
	if c.FilterEnabled && c.EBFilter > c.EBQuant {
		return c.EBFilter
	}
	return c.EBQuant
}
