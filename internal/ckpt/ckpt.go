// Package ckpt implements the versioned, self-describing, CRC-guarded
// checkpoint format for crash-fault-tolerant training. A checkpoint
// captures the complete training state at a step boundary — model
// parameters, optimizer state (SGD momentum or K-FAC covariances, cached
// decompositions, counters), every stream compressor's Stateful snapshot
// (error-feedback residuals, PowerSGD factors + step parity, COMPSO's
// stochastic-rounding RNG position), per-rank data-RNG stream positions,
// the evaluation log, and the cumulative wire counters — such that a run
// resumed from the checkpoint is bit-identical to one that never stopped.
//
// Wire layout (all integers little-endian):
//
//	magic   8 bytes  "COMPSOCR"
//	version u16      (currently 1)
//	count   u32      number of sections
//	section ×count   u8 name length | name | u64 payload length | payload
//	crc     u32      CRC-32C (Castagnoli) over everything above
//
// The decoder is hardened against adversarial blobs to the same standard
// as the compress PeekElements fix: every length and count is validated
// against the bytes actually remaining before any allocation is sized from
// it, so Decode never panics and never allocates more than a small
// constant factor of len(blob) regardless of what the header claims. The
// typed error taxonomy (ErrBadMagic, ErrVersion, ErrChecksum,
// ErrTruncated) distinguishes the failure classes callers react to
// differently: a foreign file, a format break, bit rot, and a torn write.
package ckpt

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"compso/internal/kfac"
	"compso/internal/tensor"
)

// Version is the current checkpoint format version. Bump it (and
// regenerate the golden files in testdata/) on any encoding change.
const Version = 1

var magic = [8]byte{'C', 'O', 'M', 'P', 'S', 'O', 'C', 'R'}

// Decode error taxonomy.
var (
	// ErrBadMagic: the blob is not a checkpoint at all.
	ErrBadMagic = errors.New("ckpt: bad magic")
	// ErrVersion: a checkpoint, but from an incompatible format version, or
	// holding state this build no longer reads (a K-FAC layer cache's
	// factor inverses).
	ErrVersion = errors.New("ckpt: unsupported version")
	// ErrChecksum: the CRC trailer does not match the content — bit rot or
	// in-flight corruption.
	ErrChecksum = errors.New("ckpt: checksum mismatch")
	// ErrTruncated: the blob ends before its declared content does — a
	// torn or partial write.
	ErrTruncated = errors.New("ckpt: truncated")
)

// Structural bounds the decoder enforces before trusting any header
// claim.
const (
	maxSections = 1024
	maxName     = 64
	maxString   = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is the complete training state at a step boundary.
type Checkpoint struct {
	// Step is the number of completed training steps; resume starts here.
	Step int
	// Seed, Workers, UseKFAC and Method fingerprint the run configuration
	// the state belongs to; resume validates them against its own config.
	Seed    int64
	Workers int
	UseKFAC bool
	Method  string
	// Controller fingerprints the adaptive-compression controller ("" when
	// none). The Algorithm-1 controller is a pure function of its
	// configuration and the step number, so identity — not live state — is
	// all a resume needs to verify.
	Controller string

	// Params are the model parameters (replica-identical, stored once).
	Params []Param
	// SGDVel is the SGD momentum state in params order (first-order runs).
	SGDVel [][]float64
	// KFAC is the replica-identical K-FAC state (second-order runs), and
	// KFACCaches the owner-local decomposition caches across all ranks.
	KFAC       *kfac.State
	KFACCaches []kfac.LayerCache

	// Ranks is the per-rank stream state, indexed by rank.
	Ranks []RankState

	// Log is rank 0's evaluation history up to Step.
	Log Log

	// Counters are the cumulative observability counters that must rewind
	// on restore so resumed totals match an uninterrupted run (wire bytes,
	// train/steps).
	Counters map[string]float64
}

// Param is one model parameter tensor.
type Param struct {
	Name string
	Rows int
	Cols int
	Data []float64
}

// RankState is one rank's private stream state.
type RankState struct {
	// DataRNG is the rank's data-sampling PCG position (MarshalBinary).
	DataRNG []byte
	// CRSum and CRCount accumulate the rank's compression-ratio average.
	CRSum   float64
	CRCount int
	// Comp is the rank's whole-model compressor stream (nil when the
	// compressor is stateless or the run uses per-layer compressors only).
	Comp *CompState
	// LayerComps are the rank's per-layer compressor streams, sorted by
	// ascending layer index.
	LayerComps []LayerComp
}

// LayerComp is one per-layer compressor stream.
type LayerComp struct {
	Layer int
	State *CompState
}

// Log is the evaluation history.
type Log struct {
	Iterations []int
	Losses     []float64
	Accuracies []float64
	FinalLoss  float64
	FinalAcc   float64
}

// Encode serializes the checkpoint. The output is deterministic: the same
// state always produces the same bytes (counters are sorted by name), so
// golden files and content-addressed storage both work.
func (c *Checkpoint) Encode() []byte {
	var sections []section
	add := func(name string, body []byte) {
		sections = append(sections, section{name: name, body: body})
	}

	add("meta", c.encodeMeta())
	add("model", encodeParams(c.Params))
	if !c.UseKFAC {
		add("sgd", encodeF64Slices(c.SGDVel))
	}
	if c.KFAC != nil {
		add("kfac", encodeKFACState(c.KFAC))
		add("kfaccache", encodeKFACCaches(c.KFACCaches))
	}
	add("ranks", encodeRanks(c.Ranks))
	add("log", c.Log.encode())
	add("counters", encodeCounters(c.Counters))

	e := &enc{}
	e.raw(magic[:])
	e.u16(Version)
	e.u32(uint32(len(sections)))
	for _, s := range sections {
		e.u8(uint8(len(s.name)))
		e.raw([]byte(s.name))
		e.u64(uint64(len(s.body)))
		e.raw(s.body)
	}
	e.u32(crc32.Checksum(e.buf, castagnoli))
	return e.buf
}

type section struct {
	name string
	body []byte
}

// Decode parses a checkpoint blob, validating magic, version, CRC and
// every internal length before sizing any allocation from it.
func Decode(blob []byte) (*Checkpoint, error) {
	n := len(blob)
	if n < len(magic) {
		if matchesPrefix(blob) {
			return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, n)
		}
		return nil, ErrBadMagic
	}
	for i := range magic {
		if blob[i] != magic[i] {
			return nil, ErrBadMagic
		}
	}
	// magic + version + count + crc
	if n < len(magic)+2+4+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrTruncated, n)
	}
	body, trailer := blob[:n-4], blob[n-4:]
	want := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	d := &dec{data: body, pos: len(magic)}
	ver := d.u16()
	if d.err != nil {
		return nil, d.err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: checkpoint version %d, this build reads %d", ErrVersion, ver, Version)
	}
	count := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if count > maxSections {
		return nil, fmt.Errorf("ckpt: %d sections exceeds bound %d", count, maxSections)
	}
	c := &Checkpoint{}
	for i := uint32(0); i < count; i++ {
		nameLen := d.u8()
		if d.err != nil {
			return nil, d.err
		}
		if int(nameLen) > maxName {
			return nil, fmt.Errorf("ckpt: section name %d bytes exceeds bound %d", nameLen, maxName)
		}
		name := string(d.bytes(int(nameLen)))
		bodyLen := d.u64()
		if d.err != nil {
			return nil, d.err
		}
		sec := d.sub(bodyLen)
		if d.err != nil {
			return nil, d.err
		}
		if err := c.decodeSection(name, sec); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after last section", len(d.data)-d.pos)
	}
	return c, nil
}

func matchesPrefix(blob []byte) bool {
	for i := range blob {
		if blob[i] != magic[i] {
			return false
		}
	}
	return true
}

func (c *Checkpoint) decodeSection(name string, d *dec) error {
	var err error
	switch name {
	case "meta":
		err = c.decodeMeta(d)
	case "model":
		c.Params, err = decodeParams(d)
	case "sgd":
		c.SGDVel, err = decodeF64Slices(d)
	case "kfac":
		c.KFAC, err = decodeKFACState(d)
	case "kfaccache":
		c.KFACCaches, err = decodeKFACCaches(d)
	case "ranks":
		c.Ranks, err = decodeRanks(d)
	case "log":
		err = c.Log.decode(d)
	case "counters":
		c.Counters, err = decodeCounters(d)
	default:
		return fmt.Errorf("ckpt: unknown section %q", name)
	}
	if err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.data) {
		return fmt.Errorf("ckpt: section %q has %d trailing bytes", name, len(d.data)-d.pos)
	}
	return nil
}

// --- meta ---

func (c *Checkpoint) encodeMeta() []byte {
	e := &enc{}
	e.u64(uint64(c.Step))
	e.u64(uint64(c.Seed))
	e.u32(uint32(c.Workers))
	e.bool(c.UseKFAC)
	e.str(c.Method)
	e.str(c.Controller)
	return e.buf
}

func (c *Checkpoint) decodeMeta(d *dec) error {
	c.Step = int(d.u64())
	c.Seed = int64(d.u64())
	c.Workers = int(d.u32())
	c.UseKFAC = d.bool()
	c.Method = d.str()
	c.Controller = d.str()
	if d.err == nil && (c.Step < 0 || c.Workers < 0) {
		return fmt.Errorf("ckpt: negative step %d or workers %d", c.Step, c.Workers)
	}
	return d.err
}

// --- model ---

func encodeParams(ps []Param) []byte {
	e := &enc{}
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.str(p.Name)
		e.u32(uint32(p.Rows))
		e.u32(uint32(p.Cols))
		e.f64s(p.Data)
	}
	return e.buf
}

func decodeParams(d *dec) ([]Param, error) {
	n := d.count(4)
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, nil
	}
	ps := make([]Param, 0, n)
	for i := 0; i < n; i++ {
		var p Param
		p.Name = d.str()
		p.Rows = int(d.u32())
		p.Cols = int(d.u32())
		p.Data = d.f64s()
		if d.err != nil {
			return nil, d.err
		}
		if p.Rows < 0 || p.Cols < 0 || p.Rows*p.Cols != len(p.Data) {
			return nil, fmt.Errorf("ckpt: param %q shape %dx%d with %d values", p.Name, p.Rows, p.Cols, len(p.Data))
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// --- sgd ---

func encodeF64Slices(vs [][]float64) []byte {
	e := &enc{}
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.optF64s(v)
	}
	return e.buf
}

func decodeF64Slices(d *dec) ([][]float64, error) {
	n := d.count(1)
	if d.err != nil {
		return nil, d.err
	}
	vs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vs[i] = d.optF64s()
	}
	return vs, d.err
}

// --- kfac ---

func encodeKFACState(st *kfac.State) []byte {
	e := &enc{}
	e.u64(uint64(st.Step))
	e.u64(uint64(st.StatVersion))
	e.u32(uint32(len(st.A)))
	for i := range st.A {
		e.matrix(st.A[i])
		e.matrix(st.G[i])
		e.optF64s(st.Vel[i])
	}
	e.u32(uint32(len(st.OtherVel)))
	for _, v := range st.OtherVel {
		e.optF64s(v)
	}
	return e.buf
}

func decodeKFACState(d *dec) (*kfac.State, error) {
	st := &kfac.State{}
	st.Step = int(d.u64())
	st.StatVersion = int(d.u64())
	n := d.count(16)
	if d.err != nil {
		return nil, d.err
	}
	st.A = make([]*tensor.Matrix, n)
	st.G = make([]*tensor.Matrix, n)
	st.Vel = make([][]float64, n)
	for i := 0; i < n; i++ {
		var err error
		if st.A[i], err = d.matrix(); err != nil {
			return nil, err
		}
		if st.G[i], err = d.matrix(); err != nil {
			return nil, err
		}
		st.Vel[i] = d.optF64s()
	}
	m := d.count(1)
	if d.err != nil {
		return nil, d.err
	}
	st.OtherVel = make([][]float64, m)
	for i := 0; i < m; i++ {
		st.OtherVel[i] = d.optF64s()
	}
	return st, d.err
}

func encodeKFACCaches(cs []kfac.LayerCache) []byte {
	e := &enc{}
	e.u32(uint32(len(cs)))
	for _, c := range cs {
		e.u32(uint32(c.Layer))
		e.u64(uint64(c.EigVersion))
		e.optEigen(c.EigA)
		e.optEigen(c.EigG)
		// The inverse slot (a version stamp and two optional matrices) is
		// kept on the wire, always empty.
		e.u64(0)
		e.optMatrix(nil)
		e.optMatrix(nil)
	}
	return e.buf
}

// emptyInverses reads a layer cache's inverse slot, which only the
// Cholesky preconditioning route ever filled. That route is gone, so a
// filled slot is refused: the factor inverses could neither be restored
// nor dropped without resuming on different numerics.
func (d *dec) emptyInverses(layer int) error {
	version := d.u64()
	invA, err := d.optMatrix()
	if err != nil {
		return err
	}
	invG, err := d.optMatrix()
	if err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	if version != 0 || invA != nil || invG != nil {
		return fmt.Errorf("%w: layer %d cache carries factor inverses (Cholesky preconditioning is not supported)", ErrVersion, layer)
	}
	return nil
}

func decodeKFACCaches(d *dec) ([]kfac.LayerCache, error) {
	n := d.count(22)
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, nil
	}
	cs := make([]kfac.LayerCache, 0, n)
	for i := 0; i < n; i++ {
		var c kfac.LayerCache
		var err error
		c.Layer = int(d.u32())
		c.EigVersion = int(d.u64())
		if c.EigA, err = d.optEigen(); err != nil {
			return nil, err
		}
		if c.EigG, err = d.optEigen(); err != nil {
			return nil, err
		}
		if err := d.emptyInverses(c.Layer); err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// --- ranks ---

func encodeRanks(rs []RankState) []byte {
	e := &enc{}
	e.u32(uint32(len(rs)))
	for _, r := range rs {
		e.blob(r.DataRNG)
		e.f64(r.CRSum)
		e.u64(uint64(r.CRCount))
		e.comp(r.Comp)
		e.u32(uint32(len(r.LayerComps)))
		for _, lc := range r.LayerComps {
			e.u32(uint32(lc.Layer))
			e.comp(lc.State)
		}
	}
	return e.buf
}

func decodeRanks(d *dec) ([]RankState, error) {
	n := d.count(26)
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, nil
	}
	rs := make([]RankState, 0, n)
	for i := 0; i < n; i++ {
		var r RankState
		var err error
		r.DataRNG = d.blob()
		r.CRSum = d.f64()
		r.CRCount = int(d.u64())
		if r.Comp, err = d.comp(0); err != nil {
			return nil, err
		}
		m := d.count(5)
		if d.err != nil {
			return nil, d.err
		}
		for j := 0; j < m; j++ {
			var lc LayerComp
			lc.Layer = int(d.u32())
			if lc.State, err = d.comp(0); err != nil {
				return nil, err
			}
			r.LayerComps = append(r.LayerComps, lc)
		}
		if d.err != nil {
			return nil, d.err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// --- log ---

func (l *Log) encode() []byte {
	e := &enc{}
	e.u32(uint32(len(l.Iterations)))
	for _, it := range l.Iterations {
		e.u64(uint64(it))
	}
	e.f64s(l.Losses)
	e.f64s(l.Accuracies)
	e.f64(l.FinalLoss)
	e.f64(l.FinalAcc)
	return e.buf
}

func (l *Log) decode(d *dec) error {
	n := d.count(8)
	if d.err != nil {
		return d.err
	}
	if n > 0 {
		l.Iterations = make([]int, 0, n)
	}
	for i := 0; i < n; i++ {
		l.Iterations = append(l.Iterations, int(d.u64()))
	}
	l.Losses = d.f64s()
	l.Accuracies = d.f64s()
	l.FinalLoss = d.f64()
	l.FinalAcc = d.f64()
	return d.err
}

// --- counters ---

func encodeCounters(m map[string]float64) []byte {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	e := &enc{}
	e.u32(uint32(len(names)))
	for _, k := range names {
		e.str(k)
		e.f64(m[k])
	}
	return e.buf
}

func decodeCounters(d *dec) (map[string]float64, error) {
	n := d.count(10)
	if d.err != nil {
		return nil, d.err
	}
	m := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		k := d.str()
		v := d.f64()
		if d.err != nil {
			return nil, d.err
		}
		m[k] = v
	}
	return m, nil
}

// --- primitive writers ---

type enc struct{ buf []byte }

func (e *enc) raw(b []byte) { e.buf = append(e.buf, b...) }
func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = append(e.buf, byte(v), byte(v>>8)) }
func (e *enc) u32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (e *enc) u64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *enc) str(s string) {
	if len(s) > maxString {
		panic(fmt.Sprintf("ckpt: string %d bytes exceeds bound %d", len(s), maxString))
	}
	e.u16(uint16(len(s)))
	e.raw([]byte(s))
}

func (e *enc) blob(b []byte) {
	e.u64(uint64(len(b)))
	e.raw(b)
}

func (e *enc) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *enc) f32s(v []float32) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u32(math.Float32bits(x))
	}
}

// optF64s writes a nil-able slice: nil and empty are distinct (nil means
// "state not yet allocated", which restore must preserve).
func (e *enc) optF64s(v []float64) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64s(v)
}

func (e *enc) optF32s(v []float32) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f32s(v)
}

func (e *enc) matrix(m *tensor.Matrix) {
	e.u32(uint32(m.Rows))
	e.u32(uint32(m.Cols))
	for _, x := range m.Data {
		e.f64(x)
	}
}

func (e *enc) optMatrix(m *tensor.Matrix) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.matrix(m)
}

func (e *enc) optEigen(eg *tensor.Eigen) {
	if eg == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64s(eg.Values)
	e.matrix(eg.Q)
}

// --- primitive readers ---

// dec is a bounds-checked reader over one blob. The first overrun latches
// err (ErrTruncated) and every subsequent read returns zero values, so
// decode paths can batch their error checks.
type dec struct {
	data []byte
	pos  int
	err  error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: need %d bytes past offset %d", ErrTruncated, len(d.data)-d.pos+1, d.pos)
	}
}

func (d *dec) bytes(n int) []byte {
	if d.err != nil || n < 0 || len(d.data)-d.pos < n {
		d.fail()
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (d *dec) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (d *dec) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool { return d.u8() != 0 }

// count reads a u32 element count and validates it against the bytes
// remaining at minBytes per element — the allocation guard.
func (d *dec) count(minBytes int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int(n) > (len(d.data)-d.pos)/minBytes+1 {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.u16()
	if d.err != nil {
		return ""
	}
	if int(n) > maxString {
		d.fail()
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *dec) blob() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)-d.pos) {
		d.fail()
		return nil
	}
	return append([]byte(nil), d.bytes(int(n))...)
}

// sub carves out the next n bytes as a child reader.
func (d *dec) sub(n uint64) *dec {
	if d.err != nil {
		return &dec{err: d.err}
	}
	if n > uint64(len(d.data)-d.pos) {
		d.fail()
		return &dec{err: d.err}
	}
	b := d.bytes(int(n))
	return &dec{data: b}
}

func (d *dec) f64s() []float64 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.data)-d.pos)/8 {
		d.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *dec) f32s() []float32 {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(len(d.data)-d.pos)/4 {
		d.fail()
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	return out
}

func (d *dec) optF64s() []float64 {
	if d.u8() == 0 {
		return nil
	}
	v := d.f64s()
	if v == nil && d.err == nil {
		v = []float64{}
	}
	return v
}

func (d *dec) optF32s() []float32 {
	if d.u8() == 0 {
		return nil
	}
	v := d.f32s()
	if v == nil && d.err == nil {
		v = []float32{}
	}
	return v
}

func (d *dec) matrix() (*tensor.Matrix, error) {
	rows := int(d.u32())
	cols := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if rows < 0 || cols < 0 || rows > len(d.data) || cols > len(d.data) ||
		uint64(rows)*uint64(cols) > uint64(len(d.data)-d.pos)/8 {
		d.fail()
		return nil, d.err
	}
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = d.f64()
	}
	if d.err != nil {
		return nil, d.err
	}
	return m, nil
}

func (d *dec) optMatrix() (*tensor.Matrix, error) {
	if d.u8() == 0 {
		return nil, d.err
	}
	return d.matrix()
}

func (d *dec) optEigen() (*tensor.Eigen, error) {
	if d.u8() == 0 {
		return nil, d.err
	}
	vals := d.f64s()
	q, err := d.matrix()
	if err != nil {
		return nil, err
	}
	return &tensor.Eigen{Values: vals, Q: q}, nil
}
