//go:build !amd64

package tensor

// Off amd64 addRows always runs its portable body.
const avxSupported = false

var useAVX = false

func addRowsAVX(dst, b []float64, stride int, ks []int, vs []float64) {
	panic("tensor: no AVX kernel on this architecture")
}
