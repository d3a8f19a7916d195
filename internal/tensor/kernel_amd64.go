package tensor

// addRowsAVX is addRows' body in AVX: VMULPD then VADDPD across four
// output columns per register, a strip of up to sixteen columns held in
// registers across every term. It reads whatever the terms point at:
// rowProduct has checked that every row lies in b.
//
//go:noescape
func addRowsAVX(dst, b []float64, stride int, ks []int, vs []float64)

// addPanelAVX is addPanel's body in AVX for one block of 1 ≤ rows ≤
// blockRows rows: for every strip of eight columns, the last under masks,
// it holds two registers of each row in Y0–Y7 across every term, loading
// each row of bt once for all the rows. A block of fewer rows repeats its
// last row, which stores the same bits twice. It reads and writes whatever
// the slices point at: addPanel has sliced them to the block.
//
//go:noescape
func addPanelAVX(dst []float64, rows, n int, a []float64, as int, bt []float64, nk int)

// rank2AVX is rank2's body in AVX, sixteen columns per iteration, VMULPD,
// VADDPD and VSUBPD in the scalar loop's order.
//
//go:noescape
func rank2AVX(row, p, u []float64, pc, uc float64)

// rotateSweepAVX is rotateSweep's body in AVX: for each strip of up to
// sixteen columns it holds the moving row in registers from the last row to
// the first, so each row is loaded and stored once per sweep. It reads and
// writes whatever q points at: rotateSweep has checked that the rows lie in
// q.
//
//go:noescape
func rotateSweepAVX(q []float64, n int, cs []float64)
