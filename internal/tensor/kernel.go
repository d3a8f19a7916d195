package tensor

import "math"

// The four products (MatMul, TMatMul, MatMulT, GramRows) share one inner
// kernel, addRows: an output row plus a list of (row of b, coefficient)
// terms. They differ only in how they gather that list — which zeros it
// skips, and whether b is the operand itself or a transpose packed into the
// caller's storage.

// gatherBlock is how many terms the gather hands addRows at a time: the
// kernel keeps a strip of the output row in registers across the whole
// block, so the strip is loaded and stored once per gatherBlock terms.
const gatherBlock = 64

// panelRows is how many k a product takes at a time: TMatMul's block of
// rows of a and b, and the height of the panel of a transposed operand
// that MatMulT and GramRows pack into their caller's storage.
const panelRows = 128

// terms is a gathered block: the rows of b and their coefficients that
// addRows adds next. A product keeps one on its stack for all its rows.
type terms struct {
	ks [gatherBlock]int
	vs [gatherBlock]float64
}

// rowProduct adds Σ_t c[t·cs]·b[t·stride : t·stride+len(dst)] for t in
// [0, nk) into dst, one term at a time in ascending t. With skipZeros, a
// term whose coefficient is ±0 is left out, so a NaN or ±Inf in b under it
// does not reach dst; without, every term takes part.
func (g *terms) rowProduct(dst, b []float64, stride int, c []float64, cs, nk int, skipZeros bool) {
	if len(dst) == 0 || nk == 0 {
		return
	}
	// The last row addRows may read ends inside b; every gathered row is
	// an earlier one.
	_ = b[(nk-1)*stride+len(dst)-1]
	all := 0
	if !skipZeros {
		all = 1
	}
	for t := 0; t < nk; {
		var cnt int
		cnt, t = g.gather(c, cs, t, nk, all)
		addRows(dst, b, stride, g.ks[:cnt], g.vs[:cnt])
	}
}

// gather stores the terms from t on, coefficient c[t·cs] for row t, until
// it holds gatherBlock of them or reaches nk, skipping ±0 coefficients
// unless all is 1. It returns how many it holds and where the next gather
// starts. It is kept out of rowProduct so that its loop runs in registers;
// cnt&(gatherBlock-1) is cnt (gatherBlock is a power of two), written so to
// spare a bounds check per candidate.
//
//go:noinline
func (g *terms) gather(c []float64, cs, t, nk, all int) (cnt, next int) {
	ks, vs := &g.ks, &g.vs
	_, _ = ks[0], vs[0] // one nil check, not one per candidate
	for ; t < nk; t++ {
		v := c[t*cs]
		ks[cnt&(gatherBlock-1)], vs[cnt&(gatherBlock-1)] = t, v
		if cnt += nonZero(v) | all; cnt == gatherBlock {
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
			v += a0 * b0[j]
			v += a1 * b1[j]
			v += a2 * b2[j]
			v += a3 * b3[j]
			dst[j] = v
		}
		ks, vs = ks[4:], vs[4:]
	}
	for t, av := range vs {
		brow := b[ks[t]*stride:][:n]
		for j, bv := range brow {
			dst[j] += av * bv
		}
	}
}
