package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"

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

// A COMPSO call over a large tensor runs as parts on pool helpers (§4.5's
// block-parallel kernels): the quantize pass by element range, the
// sections' coding one section a part, the restore pass by word range. No
// part's output depends on how many parts there are, so blobs and decoded
// values are the same at every worker count (DESIGN.md §5).
const (
	// splitMin is the fewest elements a part gets, so a call splits from
	// 2·splitMin elements on. BenchmarkCOMPSOSplit (serial beside split, 2
	// vCPUs) measured a 6 % loss at 2^14, nothing at 2^15–2^16 and gains
	// of 5–20 % from 2^17 to 2^20.
	splitMin = 1 << 16
	// maxParts bounds the parts of one pass, and so each job's arrays.
	maxParts = 16
)

// splitParts returns how many element ranges a pass over n elements runs in.
func splitParts(n int) int { return max(1, min(pool.Workers(), n/splitMin, maxParts)) }

// cutRanges cuts [0, n) into parts ranges at 64-element word boundaries:
// range i is [cuts[i], cuts[i+1]).
func cutRanges(cuts *[maxParts + 1]int, n, parts int) {
	for i := 1; i < parts; i++ {
		cuts[i] = (i * n / parts) &^ 63
	}
	cuts[0], cuts[parts] = 0, n
}

// compressJob is one Compress call's state, shared by its parts. quantizer
// and sectionCoder are its two passes as pool.Tasks; jobs are recycled, so
// handing parts to the pool allocates nothing.
type compressJob struct {
	c      *COMPSO
	cdc    encoding.Codec
	src    []float32
	binW   float64
	pcg    bool // stochastic rounding drawn straight from c.src
	bitmap []byte
	zigs   []uint32
	maxZig uint32
	// The quantize pass: range i writes kept[i] codes from the code index
	// its range starts at, drawing from rngs[i].
	parts   int
	cuts    [maxParts + 1]int
	kept    [maxParts]int
	maxZigs [maxParts]uint32
	rngs    [maxParts]rand.PCG
	// The coding pass: section i is encoded as enc[i] into its region of
	// the pooled scratch, [ends[i-1], ends[i]); sections [0, nSections)
	// are the code sections, section nSections the bitmap. planes holds
	// the byte planes' inputs, kept bytes each.
	nSections int
	scratch   []byte
	ends      [maxSections + 1]int
	enc       [maxSections + 1][]byte
	planes    []byte
}

var compressJobs = sync.Pool{New: func() any { return new(compressJob) }}

type quantizer compressJob

// Run quantizes range i. A range after the first starts at the code index
// of the values kept before it, which is also how many draws the stochastic
// rounding made before it, so its PCG is the call's advanced by that much.
func (q *quantizer) Run(i int) {
	j := (*compressJob)(q)
	c := j.c
	lo, hi := j.cuts[i], j.cuts[i+1]
	off := lo
	if c.FilterEnabled {
		off = quant.FilterKept(j.src[:lo], c.EBFilter)
	}
	rng := &j.rngs[i]
	if j.pcg && i > 0 {
		quant.AdvancePCG(rng, uint64(off))
	}
	src, zigs := j.src[lo:hi], j.zigs[off:]
	kept := hi - lo
	switch {
	case c.FilterEnabled && j.pcg:
		kept, j.maxZigs[i] = quant.FilterQuantizeZigPCG(j.bitmap[lo>>3:(hi+7)>>3], zigs, src, c.EBFilter, j.binW, rng)
	case c.FilterEnabled:
		kept, j.maxZigs[i] = quant.FilterQuantizeZig(j.bitmap[lo>>3:(hi+7)>>3], zigs, src, c.EBFilter, j.binW, c.Rounding, c.rng)
	case j.pcg:
		j.maxZigs[i] = quant.QuantizeZigIntoPCG(zigs, src, j.binW, rng)
	default:
		j.maxZigs[i] = quant.QuantizeZigInto(zigs, src, j.binW, c.Rounding, c.rng)
	}
	j.kept[i] = kept
}

type sectionCoder compressJob

// Run encodes section i into its region of the scratch: byte plane i (or
// the bit-packed stream), or the bitmap when i is nSections. A section that
// outgrows its region moves onto a fresh heap array, not into the next.
func (e *sectionCoder) Run(i int) {
	j := (*compressJob)(e)
	kept := len(j.zigs)
	var in []byte
	switch {
	case i == j.nSections:
		in = j.bitmap // nil without the filter: an empty stream
	case j.c.BitPacked:
		// Wide codes (width > 8 bits) overflow the kept+16 guess and make
		// PackZigs grow onto a fresh array, so Put the original handle.
		buf := pool.Bytes(kept + 16)
		defer pool.PutBytes(buf)
		in = quant.PackZigs(buf, j.zigs, j.maxZig)
	default:
		in = j.planes[i*kept : (i+1)*kept]
		quant.FillPlane(in, j.zigs, i)
	}
	start := 0
	if i > 0 {
		start = j.ends[i-1]
	}
	j.enc[i] = j.cdc.EncodeAppend(j.scratch[start:start:j.ends[i]], in)
}

// Compress implements Compressor. It is the fused single-pass rewrite of
// the pipeline (§4.5's kernel fusion): one kernel walks the input once,
// producing the filter bitmap and the zig-zagged quantization codes
// together, and every downstream section (bitmap, byte planes or the packed
// stream) is encoded into its region of one pooled scratch — no intermediate
// []float32 kept-value slice, no []int32 code vector. A large input runs
// both passes in parts on pool helpers; stochastic rounding splits only
// over the PCG (c.src), whose draws one can skip, and P0.5, whose draw count
// depends on every value, runs in one part. The emitted blob is
// byte-identical to ReferenceCompress given the same state (the multi-pass
// original preserved in reference.go), which TestCOMPSOFusedMatchesReference
// enforces, and c's stream ends where the serial pass leaves it. NaN or
// ±Inf input, which the fused pass finds, fails with ErrOutOfRange.
func (c *COMPSO) Compress(src []float32) ([]byte, error) {
	n := len(src)
	b, err := c.header(n)
	if err != nil {
		return nil, err
	}
	j := compressJobs.Get().(*compressJob)
	defer func() {
		*j = compressJob{}
		compressJobs.Put(j)
	}()
	j.c, j.cdc, j.src = c, b.codec, src
	j.binW = quant.BinWidth(c.EBQuant, c.Rounding)
	j.pcg = c.Rounding == quant.SR && c.src != nil

	// Filter + quantize + zig-zag in one pass over each range, tracking the
	// max code so the plane count / pack width needs no second scan.
	j.zigs = pool.U32(n)
	if c.FilterEnabled {
		j.bitmap = pool.Bytes((n + 7) / 8)
	}
	j.parts = 1
	if j.pcg || c.Rounding == quant.RN {
		j.parts = splitParts(n)
	}
	cutRanges(&j.cuts, n, j.parts)
	if j.pcg {
		for i := range j.parts {
			j.rngs[i] = *c.src
		}
	}
	pool.Do(j.parts, j.parts, (*quantizer)(j))
	kept := 0
	for i := range j.parts {
		kept += j.kept[i]
		j.maxZig = max(j.maxZig, j.maxZigs[i])
	}
	if j.pcg {
		*c.src = j.rngs[j.parts-1]
	}
	c.LastFilterTotal = n
	c.LastFilterKept = kept
	if j.maxZig == quant.NonFinite && !allFinite(src) {
		pool.PutU32(j.zigs)
		if j.bitmap != nil {
			pool.PutBytes(j.bitmap)
		}
		return nil, errNonFinite("COMPSO")
	}
	j.zigs = j.zigs[:kept]
	b.kept = kept

	// Byte-plane layout: entropy coders get byte-aligned symbol streams
	// (plane 0 carries the low bytes where the distribution skew lives,
	// higher planes are near-constant zero and collapse to almost nothing).
	// §4.3's ablation packs the codes densely into one section instead.
	j.nSections = 1
	if !c.BitPacked {
		j.nSections = quant.PlaneCount(j.maxZig)
	}
	// The caller takes and returns the pooled buffers of every section:
	// sync.Pool keeps a cache per P, and a buffer taken on a helper's P and
	// returned on the caller's would leave the helper's cache empty every
	// call. The scratch is only a handle: a section may outgrow it.
	end := 0
	for i := 0; i <= j.nSections; i++ {
		in := kept // a byte plane
		switch {
		case i == j.nSections:
			in = len(j.bitmap)
		case c.BitPacked:
			in = uvarintLen(uint64(kept)) + (6+kept*bits.Len32(j.maxZig)+7)/8
		}
		end += in + in>>3 + 64
		j.ends[i] = end
	}
	j.scratch = pool.Bytes(end)
	if !c.BitPacked {
		j.planes = pool.Bytes(j.nSections * kept)
	}
	pool.Do(j.nSections+1, splitParts(n), (*sectionCoder)(j))
	pool.PutU32(j.zigs)
	if j.bitmap != nil {
		pool.PutBytes(j.bitmap)
	}
	if j.planes != nil {
		pool.PutBytes(j.planes)
	}
	b.bitmap = j.enc[j.nSections]
	b.nSections = j.nSections
	copy(b.sections[:], j.enc[:j.nSections])
	out := b.appendTo(make([]byte, 0, b.size()))
	pool.PutBytes(j.scratch)
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

// decompressJob is one Decompress call's state, shared by its parts:
// sectionDecoder decodes one section a part, restorer dequantizes one range
// of words a part.
type decompressJob struct {
	b compsoBlob
	// Section i < b.nSections is code section i, section b.nSections the
	// bitmap; each decodes into the pooled buf[i] as dec[i] or fails as
	// errs[i].
	buf  [maxSections + 1][]byte
	dec  [maxSections + 1][]byte
	errs [maxSections + 1]error
	// The restore pass: range i is elements [cuts[i], cuts[i+1]), whose
	// first kept value is code ks[i].
	out    []float32
	bitmap []byte
	zigs   []uint32 // bit-packed layout only
	planes [maxSections][]byte
	binW   float64
	lut    [256]float32 // DequantizeZig of every low byte, for one or two planes
	fast   bool         // one or two byte planes
	parts  int
	cuts   [maxParts + 1]int
	ks     [maxParts + 1]int
}

var decompressJobs = sync.Pool{New: func() any { return new(decompressJob) }}

type sectionDecoder decompressJob

// Run decodes section i into buf[i], the bitmap when i is b.nSections.
func (d *sectionDecoder) Run(i int) {
	j := (*decompressJob)(d)
	sec := j.b.bitmap
	if i < j.b.nSections {
		sec = j.b.sections[i]
	}
	j.dec[i], j.errs[i] = j.b.codec.DecodeInto(j.buf[i][:0:len(j.buf[i])], sec)
}

type restorer decompressJob

// Run writes out[cuts[i]:cuts[i+1]]: each code joined from its planes (or
// read from the packed stream) and dequantized, and with the filter, the
// kept values put at the bitmap's zero bits. Decompress has checked that
// the bitmap's zero bits number the kept values, so k stays in range.
func (r *restorer) Run(part int) {
	j := (*decompressJob)(r)
	lo, hi, k := j.cuts[part], j.cuts[part+1], j.ks[part]
	out, binW, lut := j.out, j.binW, &j.lut
	p0, p1 := j.planes[0], j.planes[1]
	if !j.b.filter {
		switch {
		case j.b.bitPacked:
			for i := lo; i < hi; i++ {
				out[i] = quant.DequantizeZig(j.zigs[i], binW)
			}
		case j.b.nSections == 1:
			for i := lo; i < hi; i++ {
				out[i] = lut[p0[i]]
			}
		case j.b.nSections == 2:
			for i := lo; i < hi; i++ {
				if h := p1[i]; h != 0 {
					out[i] = quant.DequantizeZig(uint32(p0[i])|uint32(h)<<8, binW)
				} else {
					out[i] = lut[p0[i]]
				}
			}
		case j.b.nSections == 0:
			// Every code is zero; out is already zero-valued.
		default:
			for i := lo; i < hi; i++ {
				out[i] = quant.DequantizeZig(j.code(i), binW)
			}
		}
		return
	}
	bitmap := j.bitmap
	if !j.fast {
		for i := lo; i < hi; i++ {
			if bitmap[i>>3]&(1<<(i&7)) == 0 {
				out[i] = quant.DequantizeZig(j.code(k), binW)
				k++
			}
		}
		return
	}
	// Word-at-a-time restore: 64 bitmap bits load as one little-endian word,
	// and the kept positions are walked by iterating the zero bits with
	// TrailingZeros64 — the loop runs once per kept value (plus once per
	// word), not once per bit with a data-dependent branch.
	for wi := lo >> 6; wi < hi>>6; wi++ {
		inv := ^binary.LittleEndian.Uint64(bitmap[wi<<3:])
		base := wi << 6
		for ; inv != 0; inv &= inv - 1 {
			e := base + bits.TrailingZeros64(inv)
			z := uint32(p0[k])
			if p1 != nil {
				if h := p1[k]; h != 0 {
					out[e] = quant.DequantizeZig(z|uint32(h)<<8, binW)
					k++
					continue
				}
			}
			out[e] = lut[z]
			k++
		}
	}
	for i := hi &^ 63; i < hi; i++ {
		if bitmap[i>>3]&(1<<(i&7)) == 0 {
			out[i] = quant.DequantizeZig(j.code(k), binW)
			k++
		}
	}
}

// code returns kept code k, joined from the planes or read from the packed
// stream.
func (j *decompressJob) code(k int) uint32 {
	if j.b.bitPacked {
		return j.zigs[k]
	}
	var z uint32
	for p := 0; p < j.b.nSections; p++ {
		z |= uint32(j.planes[p][k]) << (8 * p)
	}
	return z
}

// Decompress implements Compressor. The fused decode path mirrors Compress:
// sections decode into pooled scratch, and one fused loop joins the byte
// planes (or reads the packed stream), dequantizes, and restores the
// filtered zeros directly into the output slice — no []int32 code vector or
// intermediate []float32 kept-value slice. A large blob decodes its
// sections concurrently and restores by word range on pool helpers. It
// returns exactly the values (and errors, modulo message wording) of the
// multi-pass ReferenceDecompress, at every worker count.
func (c *COMPSO) Decompress(data []byte) ([]float32, error) {
	b, err := parseCOMPSO(data)
	if err != nil {
		return nil, err
	}
	j := decompressJobs.Get().(*decompressJob)
	defer func() {
		for _, s := range j.buf {
			if s != nil {
				pool.PutBytes(s)
			}
		}
		if j.zigs != nil {
			pool.PutU32(j.zigs)
		}
		*j = decompressJob{}
		decompressJobs.Put(j)
	}()
	j.b = b
	n, keptCount, nPlanes := b.n, b.kept, b.nSections
	j.parts = splitParts(n)
	nDecode := nPlanes // the code sections, then the bitmap with the filter
	if b.filter {
		nDecode++
	}
	// Each section decodes into a pooled buffer sized by the bound the
	// header sets on it: a bitmap bit per element, a byte per kept value
	// and plane, or packedLen for the bit-packed stream. The caller takes
	// and returns them all, as Compress does its scratch.
	for i := 0; i < nPlanes; i++ {
		size := keptCount
		if b.bitPacked {
			size = packedLen(keptCount)
		}
		j.buf[i] = pool.Bytes(size)
	}
	if b.filter {
		j.buf[nPlanes] = pool.Bytes((n + 7) / 8)
	}
	pool.Do(nDecode, j.parts, (*sectionDecoder)(j))
	if b.filter {
		if j.bitmap, err = j.dec[nPlanes], j.errs[nPlanes]; err != nil {
			return nil, fmt.Errorf("%w: COMPSO bitmap: %v", ErrCorrupt, err)
		}
	}
	if b.bitPacked {
		if err := j.errs[0]; err != nil {
			return nil, fmt.Errorf("%w: COMPSO packed: %v", ErrCorrupt, err)
		}
		j.zigs = pool.U32(keptCount)
		if err := unpackZigsInto(j.zigs, j.dec[0], keptCount); err != nil {
			return nil, fmt.Errorf("%w: COMPSO: %v", ErrCorrupt, err)
		}
	} else {
		for p := 0; p < nPlanes; p++ {
			if err := j.errs[p]; err != nil {
				return nil, fmt.Errorf("%w: COMPSO plane %d: %v", ErrCorrupt, p, err)
			}
			if j.planes[p] = j.dec[p]; len(j.planes[p]) != keptCount {
				return nil, fmt.Errorf("%w: COMPSO: plane %d has %d bytes, want %d", ErrCorrupt, p, len(j.planes[p]), keptCount)
			}
		}
	}
	if !b.filter && keptCount != n {
		return nil, fmt.Errorf("%w: COMPSO: %d values for %d elements", ErrCorrupt, keptCount, n)
	}
	if b.filter && len(j.bitmap) < (n+7)/8 {
		return nil, fmt.Errorf("%w: COMPSO: bitmap of %d bytes too short for %d values", ErrCorrupt, len(j.bitmap), n)
	}
	cutRanges(&j.cuts, n, j.parts)
	// Each range starts at the kept values before it: the bitmap's zero
	// bits, counted a word at a time. Their total must be the kept count.
	for i := 0; i < j.parts; i++ {
		lo, hi := j.cuts[i], j.cuts[i+1]
		if !b.filter {
			j.ks[i+1] = hi
			continue
		}
		kept := j.ks[i]
		for wi := lo >> 6; wi < hi>>6; wi++ {
			kept += 64 - bits.OnesCount64(binary.LittleEndian.Uint64(j.bitmap[wi<<3:]))
		}
		for e := hi &^ 63; e < hi; e++ {
			kept += int(^j.bitmap[e>>3] >> (e & 7) & 1)
		}
		j.ks[i+1] = kept
	}
	if k := j.ks[j.parts]; k > keptCount {
		return nil, fmt.Errorf("%w: COMPSO: bitmap expects more than %d kept values", ErrCorrupt, keptCount)
	} else if k < keptCount {
		return nil, fmt.Errorf("%w: COMPSO: %d kept values unused (bitmap expects %d)", ErrCorrupt, keptCount-k, k)
	}
	j.binW = quant.BinWidth(b.ebq, b.rounding)
	// One or two byte planes cover every real gradient stream; there the
	// low byte dequantizes through a 256-entry table built with the exact
	// DequantizeZig arithmetic, and the near-constant-zero high plane falls
	// back to the full computation only when its byte is set.
	j.fast = !b.bitPacked && (nPlanes == 1 || nPlanes == 2)
	if j.fast {
		for z := range j.lut {
			j.lut[z] = quant.DequantizeZig(uint32(z), j.binW)
		}
	}
	j.out = make([]float32, n)
	pool.Do(j.parts, j.parts, (*restorer)(j))
	return j.out, nil
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
