package tensor

import (
	"math"

	"compso/internal/cpu"
)

// The four products run on two kernels. MatMul, TMatMul and GramRows skip
// the zeros of a, so each output row gathers its own list of (row of b,
// coefficient) terms and hands it to addRows, which adds them into that one
// row. MatMulT skips nothing, so it gathers nothing: addPanel reads the
// coefficients straight from the rows of a and adds a panel of its packed
// bᵀ into blockRows output rows at once, whose accumulators share every
// load of the panel. A row kernel has a whole register file for one row's
// strip; a block kernel spends it on a narrower strip of several rows, so
// the two are separate bodies. EigenSym's axpy is addRows with one term.

// gatherBlock is how many terms the gather hands addRows at a time: the
// kernel keeps a strip of the output row in registers across the whole
// block, so the strip is loaded and stored once per gatherBlock terms.
const gatherBlock = 64

// panelRows is how many k a product takes at a time: TMatMul's block of
// rows of a and b, and the height of the panel of a transposed operand
// that MatMulT and GramRows pack into their caller's storage.
const panelRows = 128

// blockRows is how many output rows addPanel carries at a time.
const blockRows = 4

// useAVX selects the kernels addRows, addPanel, rank2 and rotateSweep run.
// It is cpu.HasAVX, except in the tests that run each product once per
// path.
var useAVX = cpu.HasAVX

// terms is a gathered block: the rows of b and their coefficients that
// addRows adds next. A product keeps one on its stack for all its rows.
type terms struct {
	ks [gatherBlock]int
	vs [gatherBlock]float64
}

// rowProduct adds Σ_t c[t·cs]·b[t·stride : t·stride+len(dst)] for t in
// [0, nk) into dst, one term at a time in ascending t. A term whose
// coefficient is ±0 is left out, so a NaN or ±Inf in b under it does not
// reach dst.
func (g *terms) rowProduct(dst, b []float64, stride int, c []float64, cs, nk int) {
	if len(dst) == 0 || nk == 0 {
		return
	}
	// The last row addRows may read ends inside b; every gathered row is
	// an earlier one.
	_ = b[(nk-1)*stride+len(dst)-1]
	for t := 0; t < nk; {
		var cnt int
		cnt, t = g.gather(c, cs, t, nk)
		addRows(dst, b, stride, g.ks[:cnt], g.vs[:cnt])
	}
}

// gather stores the terms from t on, coefficient c[t·cs] for row t, until
// it holds gatherBlock of them or reaches nk, skipping ±0 coefficients. It
// returns how many it holds and where the next gather starts. It is kept
// out of rowProduct so that its loop runs in registers; cnt&(gatherBlock-1)
// is cnt (gatherBlock is a power of two), written so to spare a bounds
// check per candidate.
//
//go:noinline
func (g *terms) gather(c []float64, cs, t, nk int) (cnt, next int) {
	ks, vs := &g.ks, &g.vs
	_, _ = ks[0], vs[0] // one nil check, not one per candidate
	for ; t < nk; t++ {
		v := c[t*cs]
		ks[cnt&(gatherBlock-1)], vs[cnt&(gatherBlock-1)] = t, v
		if cnt += nonZero(v); cnt == gatherBlock {
			return cnt, t + 1
		}
	}
	return cnt, nk
}

// nonZero is 1 when v takes part in a product and 0 when it is skipped (±0).
// The gather stores every candidate and advances by nonZero, a flag set, not
// a branch: rectified activations are zero about every other element, and a
// branch on them mispredicts about every other time. The test is v != 0
// written on the bits, because the float comparison compiles to a branch.
func nonZero(v float64) int {
	if math.Float64bits(v)<<1 != 0 {
		return 1
	}
	return 0
}

// addRows adds Σ_t vs[t]·(row ks[t] of b) into dst, where row k of b is the
// len(dst) values from b[k·stride]: term by term in the order given, each
// element of dst seeing exactly the roundings of
//
//	for t := range ks { dst[j] += vs[t] * b[ks[t]*stride+j] }
//
// — a rounded product, then a rounded sum, never a fused multiply-add.
// useAVX picks the AVX kernel; otherwise, and off amd64, the portable body
// runs. Every row must lie in b and len(vs) ≥ len(ks): the AVX kernel does
// not check (rowProduct does, once per output row).
func addRows(dst, b []float64, stride int, ks []int, vs []float64) {
	if useAVX {
		raceAddRows(dst, b, stride, ks)
		addRowsAVX(dst, b, stride, ks, vs)
		return
	}
	addRowsGo(dst, b, stride, ks, vs)
}

// addRowsGo is addRows' portable body. Each element of dst is loaded and
// stored once per four terms.
func addRowsGo(dst, b []float64, stride int, ks []int, vs []float64) {
	n := len(dst)
	for len(ks) >= 4 && len(vs) >= 4 {
		a0, a1, a2, a3 := vs[0], vs[1], vs[2], vs[3]
		b0 := b[ks[0]*stride:][:n]
		b1 := b[ks[1]*stride:][:n]
		b2 := b[ks[2]*stride:][:n]
		b3 := b[ks[3]*stride:][:n]
		for j, v := range dst {
			v += float64(a0 * b0[j])
			v += float64(a1 * b1[j])
			v += float64(a2 * b2[j])
			v += float64(a3 * b3[j])
			dst[j] = v
		}
		ks, vs = ks[4:], vs[4:]
	}
	for t, av := range vs {
		brow := b[ks[t]*stride:][:n]
		for j, bv := range brow {
			dst[j] += float64(av * bv)
		}
	}
}

// addPanel adds a panel of terms into rows output rows, each n wide: row r,
// dst[r·n : r·n+n], takes Σ_t a[r·as+t]·(row t of bt) for t in [0, nk),
// where row t of bt is bt[t·n : t·n+n] — every term, in ascending t, each
// element seeing exactly the roundings of
//
//	for t := range nk { dst[r*n+j] += a[r*as+t] * bt[t*n+j] }
//
// — a rounded product, then a rounded sum, never a fused multiply-add.
// This is addRows with the terms (t, a[r·as+t]) on each row, so the order of
// the rows, of the columns and the blocking change no bit.
func addPanel(dst []float64, rows, n int, a []float64, as int, bt []float64, nk int) {
	if rows == 0 || n == 0 || nk == 0 {
		return
	}
	bt = bt[:nk*n]
	for i := 0; i < rows; i += blockRows {
		br := min(blockRows, rows-i)
		d, c := dst[i*n:][:br*n], a[i*as:][:(br-1)*as+nk]
		if useAVX {
			raceAddPanel(d, br, c, as, bt, nk)
			addPanelAVX(d, br, n, c, as, bt, nk)
			continue
		}
		addPanelGo(d, br, n, c, as, bt, nk)
	}
}

// addPanelGo is addPanel's portable body, a row at a time: each element of
// dst is loaded and stored once per four terms.
func addPanelGo(dst []float64, rows, n int, a []float64, as int, bt []float64, nk int) {
	for r := 0; r < rows; r++ {
		d, c := dst[r*n:][:n], a[r*as:][:nk]
		t := 0
		for ; t+4 <= nk; t += 4 {
			a0, a1, a2, a3 := c[t], c[t+1], c[t+2], c[t+3]
			b0 := bt[t*n:][:n]
			b1 := bt[(t+1)*n:][:n]
			b2 := bt[(t+2)*n:][:n]
			b3 := bt[(t+3)*n:][:n]
			for j, v := range d {
				v += float64(a0 * b0[j])
				v += float64(a1 * b1[j])
				v += float64(a2 * b2[j])
				v += float64(a3 * b3[j])
				d[j] = v
			}
		}
		for ; t < nk; t++ {
			av := c[t]
			for j, bv := range bt[t*n:][:n] {
				d[j] += float64(av * bv)
			}
		}
	}
}

// axpy adds a·x into dst, element by element: addRows with the one term
// (x, a). dst[j] − g·x[j] is dst[j] + (−g)·x[j] bit for bit, so axpy with
// a = −g also serves for a subtraction.
func axpy(dst, x []float64, a float64) {
	ks, vs := [1]int{}, [1]float64{a}
	addRows(dst, x[:len(dst)], 0, ks[:], vs[:])
}

// rank2 subtracts f·p + g·u from row, element by element with the roundings
// of
//
//	row[k] -= f*p[k] + g*u[k]
//
// — two rounded products, their rounded sum, then the rounded difference,
// never a fused multiply-add. p and u must hold at least len(row) values.
func rank2(row, p, u []float64, f, g float64) {
	p, u = p[:len(row)], u[:len(row)]
	if useAVX {
		raceRank2(row, p, u)
		rank2AVX(row, p, u, f, g)
		return
	}
	rank2Go(row, p, u, f, g)
}

// rank2Go is rank2's portable body.
func rank2Go(row, p, u []float64, f, g float64) {
	p, u = p[:len(row)], u[:len(row)]
	for k := range row {
		row[k] -= float64(f*p[k]) + float64(g*u[k])
	}
}

// rotateSweep applies a sweep of Givens rotations to the rows of q, each n
// long: rotation t, with c = cs[2t] and s = cs[2t+1], takes the rows
// lo = r−1 and hi = r, r = len(cs)/2 − t, to
//
//	hi[k], lo[k] = s*lo[k] + c*hi[k], c*lo[k] − s*hi[k]
//
// with every product and sum rounded, never fused. The sweep climbs from
// the last two rows to the first two. Each column sees the rotations in
// that order, whatever order the columns are taken in, so the AVX kernel
// carries a strip of columns through the whole sweep in registers. q must
// hold len(cs)/2 + 1 rows.
func rotateSweep(q []float64, n int, cs []float64) {
	q = q[:(len(cs)/2+1)*n]
	if useAVX {
		raceRotateSweep(q, cs)
		rotateSweepAVX(q, n, cs)
		return
	}
	rotateSweepGo(q, n, cs)
}

// rotateSweepGo is rotateSweep's portable body: one rotation at a time, over
// two whole rows.
func rotateSweepGo(q []float64, n int, cs []float64) {
	for t := 0; 2*t+1 < len(cs); t++ {
		c, s := cs[2*t], cs[2*t+1]
		r := len(cs)/2 - t
		lo := q[(r-1)*n : r*n]
		hi := q[r*n : (r+1)*n][:len(lo)]
		for k, x := range lo {
			y := hi[k]
			hi[k] = float64(s*x) + float64(c*y)
			lo[k] = float64(c*x) - float64(s*y)
		}
	}
}
