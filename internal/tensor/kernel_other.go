//go:build !amd64

package tensor

// Off amd64 every kernel runs its portable body: useAVX is false.

func addRowsAVX(dst, b []float64, stride int, ks []int, vs []float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func addPanelAVX(dst []float64, rows, n int, a []float64, as int, bt []float64, nk int) {
	panic("tensor: no AVX kernel on this architecture")
}

func rank2AVX(row, p, u []float64, pc, uc float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func rotateSweepAVX(q []float64, n int, cs []float64) {
	panic("tensor: no AVX kernel on this architecture")
}
