package compress

import (
	"encoding/binary"
	"fmt"
	"math"

	"compso/internal/pool"
	"compso/internal/xrand"
)

// PowerSGD is the low-rank gradient compressor family (Vogels et al.,
// PowerSGD; Zhou et al., ACP-SGD): the gradient vector is viewed as a 2D
// matrix M (its natural layer shape, or a near-square reshape) and
// approximated by a rank-k product P·Qᵀ obtained from one step of
// subspace/power iteration. The query factor is warm-started across steps,
// so successive gradients sharpen the shared subspace instead of paying a
// fresh iteration each time.
//
// The compressor operates in two modes:
//
//   - Blob mode (Compress/Decompress): both factors travel in a
//     self-describing buffer, interchangeable with every other family —
//     all-gather aggregation, serve sessions, EF wrapping.
//   - Ring mode (ReduceFactor/InstallReduced): ACP-SGD's alternating
//     compression. Even steps communicate P = M·Q against the shared
//     orthonormal query Q; odd steps communicate Q = Mᵀ·P against the
//     shared orthonormal P. Because the non-communicated factor is
//     identical on every worker, the aggregated quantity is a plain sum:
//     Σᵢ(Mᵢ·Q) = (ΣᵢMᵢ)·Q — which is exactly what a ring all-reduce
//     computes, at a fraction of the all-gather volume.
//
// A PowerSGD instance is stateful per gradient stream (pinned length,
// warm-started factors): use one per (worker, tensor) pair and Reset
// between logical streams. Decompress, by contrast, is receiver-stateless.
type PowerSGD struct {
	// Rank is k, the factorization rank (≥1). Wire volume per step is
	// k·(rows+cols) float32 values in blob mode and half that, amortized,
	// in ring mode.
	Rank int
	// Rows and Cols optionally pin the 2D view of the gradient (e.g. a
	// layer's ADim×GDim). Zero values select a near-square reshape of the
	// first gradient's length; the matrix is zero-padded to rows·cols.
	Rows, Cols int
	// Seed derives the deterministic initial query factor. Ring-mode
	// workers must share one seed so their initial subspace agrees.
	Seed int64
	// WarmStart reuses the previous step's query factor (the power
	// iteration); disabling it re-initializes the query each call.
	WarmStart bool

	// Pinned stream shape (set on first use).
	n, rows, cols, k int
	// q is the cols×k query factor, orthonormal columns; p is the rows×k
	// left factor (ring mode only).
	q, p []float64
	// out is InstallReduced's result, reused from call to call.
	out []float32
	// phase alternates ring-mode steps: 0 → communicate P, 1 → communicate Q.
	phase int
	step  int
}

// NewPowerSGD returns a rank-k PowerSGD compressor with warm-started
// queries and a near-square reshape.
func NewPowerSGD(rank int, seed int64) *PowerSGD {
	if rank < 1 {
		rank = 1
	}
	return &PowerSGD{Rank: rank, Seed: seed, WarmStart: true}
}

// Name implements Compressor.
func (pc *PowerSGD) Name() string { return fmt.Sprintf("PowerSGD-r%d", pc.Rank) }

// ensureShape pins the stream's length and 2D view on first use and
// rejects later length changes — the factor state is shape-bound exactly
// like an EF residual.
func (pc *PowerSGD) ensureShape(n int) error {
	if pc.rows != 0 || pc.n != 0 || pc.step > 0 {
		if n != pc.n {
			return fmt.Errorf("%w: PowerSGD stream length %d, input %d", ErrLengthMismatch, pc.n, n)
		}
		return nil
	}
	if n == 0 {
		pc.step = 1 // pin the zero-length stream
		return nil
	}
	rows, cols := pc.Rows, pc.Cols
	if rows <= 0 || cols <= 0 {
		rows = int(math.Ceil(math.Sqrt(float64(n))))
		cols = (n + rows - 1) / rows
	}
	if rows*cols < n {
		return fmt.Errorf("compress: PowerSGD shape %dx%d holds %d values, input %d", rows, cols, rows*cols, n)
	}
	k := pc.Rank
	if k < 1 {
		k = 1
	}
	if k > rows {
		k = rows
	}
	if k > cols {
		k = cols
	}
	pc.n, pc.rows, pc.cols, pc.k = n, rows, cols, k
	return nil
}

// initQuery builds the deterministic orthonormal initial query factor. It
// depends only on (Seed, shape), so ring-mode workers sharing a seed start
// from an identical subspace.
func (pc *PowerSGD) initQuery() []float64 {
	rng := xrand.New(
		uint64(pc.Seed)*0x9e3779b97f4a7c15+0x4c,
		uint64(pc.rows)<<42^uint64(pc.cols)<<21^uint64(pc.k),
	)
	q := make([]float64, pc.cols*pc.k)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	orthonormalize(q, pc.cols, pc.k)
	return q
}

// orthonormalize runs modified Gram-Schmidt over the columns of the
// rows×k row-major matrix m, in place. Degenerate (near-zero) columns are
// replaced by a deterministic canonical basis vector re-orthogonalized
// against the previous columns, so the result is reproducible bit-for-bit
// on every worker.
func orthonormalize(m []float64, rows, k int) {
	project := func(j int) {
		for i := 0; i < j; i++ {
			var dot float64
			for r := 0; r < rows; r++ {
				dot += m[r*k+j] * m[r*k+i]
			}
			for r := 0; r < rows; r++ {
				m[r*k+j] -= dot * m[r*k+i]
			}
		}
	}
	norm := func(j int) float64 {
		var s float64
		for r := 0; r < rows; r++ {
			s += m[r*k+j] * m[r*k+j]
		}
		return math.Sqrt(s)
	}
	for j := 0; j < k; j++ {
		project(j)
		nrm := norm(j)
		if nrm < 1e-12 {
			for r := 0; r < rows; r++ {
				m[r*k+j] = 0
			}
			m[(j%rows)*k+j] = 1
			project(j)
			nrm = norm(j)
			if nrm < 1e-12 {
				continue // rank-deficient beyond repair; keep the zero column
			}
		}
		inv := 1 / nrm
		for r := 0; r < rows; r++ {
			m[r*k+j] *= inv
		}
	}
}

// mulMQ computes dst = M·Q (rows×k), where M is the zero-padded rows×cols
// view of src[:n] and Q is cols×k.
func mulMQ(src []float32, n, rows, cols, k int, q, dst []float64) {
	clear(dst)
	for r := 0; r < rows; r++ {
		base := r * cols
		cend := cols
		if base+cend > n {
			cend = n - base
		}
		if cend <= 0 {
			break
		}
		prow := dst[r*k : r*k+k]
		for c := 0; c < cend; c++ {
			v := float64(src[base+c])
			if v == 0 {
				continue
			}
			qrow := q[c*k : c*k+k]
			for j := range prow {
				prow[j] += v * qrow[j]
			}
		}
	}
}

// mulMTP computes dst = Mᵀ·P (cols×k) for the same padded view.
func mulMTP(src []float32, n, rows, cols, k int, p, dst []float64) {
	clear(dst)
	for r := 0; r < rows; r++ {
		base := r * cols
		cend := cols
		if base+cend > n {
			cend = n - base
		}
		if cend <= 0 {
			break
		}
		prow := p[r*k : r*k+k]
		for c := 0; c < cend; c++ {
			v := float64(src[base+c])
			if v == 0 {
				continue
			}
			qrow := dst[c*k : c*k+k]
			for j := range qrow {
				qrow[j] += v * prow[j]
			}
		}
	}
}

// lowRankReconstruct writes flatten(P·Qᵀ)[:n] into out.
func lowRankReconstruct(pm, qm []float64, n, cols, k int, out []float32) {
	idx := 0
	for r := 0; idx < n; r++ {
		prow := pm[r*k : r*k+k]
		cend := cols
		if n-idx < cend {
			cend = n - idx
		}
		for c := 0; c < cend; c++ {
			qrow := qm[c*k : c*k+k]
			var s float64
			for j := range prow {
				s += prow[j] * qrow[j]
			}
			out[idx] = float32(s)
			idx++
		}
	}
}

func appendF32Factors(dst []byte, vals []float64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
	}
	return dst
}

// Compress encodes src as rank-k factors P and Q = MᵀP against the
// warm-started query (blob mode; one power-iteration step per call). The
// blob is self-describing: header, shape, then both factors as float32.
func (pc *PowerSGD) Compress(src []float32) ([]byte, error) {
	if err := pc.ensureShape(len(src)); err != nil {
		return nil, err
	}
	n, rows, cols, k := pc.n, pc.rows, pc.cols, pc.k
	out := make([]byte, 0, 16+4*k*(rows+cols))
	out = putHeader(out, magicLowRank, n)
	out = binary.AppendUvarint(out, uint64(rows))
	out = binary.AppendUvarint(out, uint64(cols))
	out = binary.AppendUvarint(out, uint64(k))
	if n == 0 {
		return out, nil
	}
	if pc.q == nil || !pc.WarmStart {
		pc.q = pc.initQuery()
	}
	p := pool.F64(rows * k)
	defer pool.PutF64(p)
	mulMQ(src, n, rows, cols, k, pc.q, p)
	// Every nonzero input meets every column of the query in M·Q, and a
	// non-finite product stays non-finite in the sums, so P holds a NaN or
	// an infinity exactly when the input does; finite float32 inputs cannot
	// overflow float64 sums.
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errNonFinite("PowerSGD")
		}
	}
	orthonormalize(p, rows, k)
	qn := pool.F64(cols * k)
	defer pool.PutF64(qn)
	mulMTP(src, n, rows, cols, k, p, qn)
	out = appendF32Factors(out, p)
	out = appendF32Factors(out, qn)
	// Warm-start the next step's query with the orthonormalized new range.
	orthonormalize(qn, cols, k)
	copy(pc.q, qn)
	pc.step++
	return out, nil
}

// Decompress restores flatten(P·Qᵀ)[:n] from a blob-mode buffer. It is
// receiver-stateless: any PowerSGD value (including the zero value)
// decodes any blob.
func (pc *PowerSGD) Decompress(data []byte) ([]float32, error) {
	n, rest, err := getHeader(data, magicLowRank, "PowerSGD")
	if err != nil {
		return nil, err
	}
	var dims [3]uint64
	for i := range dims {
		v, used := binary.Uvarint(rest)
		if used <= 0 || v > 1<<31 {
			return nil, fmt.Errorf("%w: PowerSGD: bad shape header", ErrCorrupt)
		}
		dims[i] = v
		rest = rest[used:]
	}
	rows, cols, k := int(dims[0]), int(dims[1]), int(dims[2])
	if n == 0 {
		if rows != 0 || cols != 0 || k != 0 || len(rest) != 0 {
			return nil, fmt.Errorf("%w: PowerSGD: non-empty payload for empty stream", ErrCorrupt)
		}
		return []float32{}, nil
	}
	if rows < 1 || cols < 1 || k < 1 || k > rows || k > cols {
		return nil, fmt.Errorf("%w: PowerSGD: shape %dx%d rank %d", ErrCorrupt, rows, cols, k)
	}
	if uint64(rows)*uint64(cols) < uint64(n) {
		return nil, fmt.Errorf("%w: PowerSGD: shape %dx%d holds fewer than %d values", ErrCorrupt, rows, cols, n)
	}
	want := 4 * uint64(k) * uint64(rows+cols)
	if uint64(len(rest)) != want {
		return nil, fmt.Errorf("%w: PowerSGD: factor payload %d bytes, want %d", ErrCorrupt, len(rest), want)
	}
	pm := pool.F64(rows * k)
	defer pool.PutF64(pm)
	for i := range pm {
		pm[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:])))
	}
	rest = rest[4*rows*k:]
	qm := pool.F64(cols * k)
	defer pool.PutF64(qm)
	for i := range qm {
		qm[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(rest[4*i:])))
	}
	out := make([]float32, n)
	lowRankReconstruct(pm, qm, n, cols, k, out)
	return out, nil
}

// AllReducible is implemented by compressors whose compressed
// representation aggregates as a sum, so the distributed exchange can be a
// ring all-reduce over the factor instead of an all-gather of per-rank
// blobs. The contract is SPMD: every worker calls ReduceFactor with its
// local gradient, the factors are summed element-wise by the collective,
// and every worker passes the identical sum to InstallReduced — which
// returns the world-averaged restored gradient and advances the shared
// factor state identically on all workers.
type AllReducible interface {
	Compressor
	// ReduceFactor projects src onto this step's communicated factor
	// (float64 for exact summation; the collective charges FP32 wire
	// bytes). The returned slice is owned by the caller.
	ReduceFactor(src []float32) ([]float64, error)
	// InstallReduced consumes the element-wise sum of all workers'
	// factors and returns the averaged restored gradient. The result is
	// the compressor's own buffer, valid until its next InstallReduced.
	InstallReduced(sum []float64, world int) ([]float32, error)
}

// ReduceFactor implements AllReducible: even steps emit P = M·Q against
// the shared orthonormal query, odd steps emit Q = Mᵀ·P against the
// shared orthonormal left factor (ACP-SGD's alternating compression).
func (pc *PowerSGD) ReduceFactor(src []float32) ([]float64, error) {
	if err := pc.ensureShape(len(src)); err != nil {
		return nil, err
	}
	if pc.n == 0 {
		return []float64{}, nil
	}
	n, rows, cols, k := pc.n, pc.rows, pc.cols, pc.k
	if pc.q == nil {
		pc.q = pc.initQuery()
	}
	if pc.phase == 0 {
		f := make([]float64, rows*k)
		mulMQ(src, n, rows, cols, k, pc.q, f)
		return f, nil
	}
	f := make([]float64, cols*k)
	mulMTP(src, n, rows, cols, k, pc.p, f)
	return f, nil
}

// InstallReduced implements AllReducible. The averaged factor reconstructs
// the gradient against the shared non-communicated factor, and its
// orthonormalization becomes that shared factor for the next step. The
// average is taken in the storage of the factor it retires.
func (pc *PowerSGD) InstallReduced(sum []float64, world int) ([]float32, error) {
	if world <= 0 {
		return nil, fmt.Errorf("compress: PowerSGD: world size %d", world)
	}
	if pc.n == 0 {
		if len(sum) != 0 {
			return nil, fmt.Errorf("compress: PowerSGD: %d factor values for an empty stream", len(sum))
		}
		return []float32{}, nil
	}
	if pc.rows == 0 {
		return nil, fmt.Errorf("compress: PowerSGD: InstallReduced before ReduceFactor")
	}
	n, rows, cols, k := pc.n, pc.rows, pc.cols, pc.k
	inv := 1 / float64(world)
	pc.out = resize(pc.out, n)
	out := pc.out
	if pc.phase == 0 {
		if len(sum) != rows*k {
			return nil, fmt.Errorf("compress: PowerSGD: P factor %d values, want %d", len(sum), rows*k)
		}
		avg := resize(pc.p, len(sum))
		for i, v := range sum {
			avg[i] = v * inv
		}
		lowRankReconstruct(avg, pc.q, n, cols, k, out)
		orthonormalize(avg, rows, k)
		pc.p = avg
		pc.phase = 1
	} else {
		if len(sum) != cols*k {
			return nil, fmt.Errorf("compress: PowerSGD: Q factor %d values, want %d", len(sum), cols*k)
		}
		avg := resize(pc.q, len(sum))
		for i, v := range sum {
			avg[i] = v * inv
		}
		lowRankReconstruct(pc.p, avg, n, cols, k, out)
		orthonormalize(avg, cols, k)
		pc.q = avg
		pc.phase = 0
	}
	pc.step++
	return out, nil
}

// resize returns s with length n and unspecified contents, in s's storage
// when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FactorLen reports the communicated factor length (in values) for a
// stream of n gradients — the per-step ring all-reduce volume. Even steps
// send rows·k, odd steps cols·k; callers sizing communication budgets can
// take the mean.
func (pc *PowerSGD) FactorLen(n int) (even, odd int, err error) {
	probe := *pc
	probe.n, probe.rows, probe.cols, probe.k, probe.step = 0, 0, 0, 0, 0
	if err := probe.ensureShape(n); err != nil {
		return 0, 0, err
	}
	return probe.rows * probe.k, probe.cols * probe.k, nil
}

// PowerSGDState is the State() snapshot: the pinned shape, step counters
// and deep copies of the live factors.
type PowerSGDState struct {
	Step, Phase         int
	N, Rows, Cols, Rank int
	P, Q                []float64
}

// Reset implements Stateful: the next call starts a fresh stream (new
// length pin, re-initialized query).
func (pc *PowerSGD) Reset() {
	pc.n, pc.rows, pc.cols, pc.k = 0, 0, 0, 0
	pc.p, pc.q = nil, nil
	pc.phase, pc.step = 0, 0
}

// State implements Stateful.
func (pc *PowerSGD) State() any {
	st := PowerSGDState{
		Step: pc.step, Phase: pc.phase,
		N: pc.n, Rows: pc.rows, Cols: pc.cols, Rank: pc.k,
	}
	if pc.p != nil {
		st.P = append([]float64(nil), pc.p...)
	}
	if pc.q != nil {
		st.Q = append([]float64(nil), pc.q...)
	}
	return st
}

// Restore implements Restorable: it re-installs a State() snapshot — shape
// pin, step parity, and deep copies of the warm-started factors — so the
// next ReduceFactor/InstallReduced round continues the snapshotted stream
// bit-exactly. The snapshot's rank must match the configured Rank (the
// factor shapes depend on it).
func (pc *PowerSGD) Restore(state any) error {
	st, ok := state.(PowerSGDState)
	if !ok {
		if p, ok2 := state.(*PowerSGDState); ok2 {
			st = *p
		} else {
			return fmt.Errorf("compress: PowerSGD restore: snapshot type %T", state)
		}
	}
	if st.N != 0 && st.Rows*st.Cols < st.N {
		return fmt.Errorf("compress: PowerSGD restore: shape %dx%d cannot hold %d values", st.Rows, st.Cols, st.N)
	}
	if st.P != nil && len(st.P) != st.Rows*st.Rank {
		return fmt.Errorf("compress: PowerSGD restore: P factor %d values, want %d", len(st.P), st.Rows*st.Rank)
	}
	if st.Q != nil && len(st.Q) != st.Cols*st.Rank {
		return fmt.Errorf("compress: PowerSGD restore: Q factor %d values, want %d", len(st.Q), st.Cols*st.Rank)
	}
	pc.n, pc.rows, pc.cols, pc.k = st.N, st.Rows, st.Cols, st.Rank
	pc.phase, pc.step = st.Phase, st.Step
	if st.P != nil {
		pc.p = append([]float64(nil), st.P...)
	} else {
		pc.p = nil
	}
	if st.Q != nil {
		pc.q = append([]float64(nil), st.Q...)
	} else {
		pc.q = nil
	}
	return nil
}
