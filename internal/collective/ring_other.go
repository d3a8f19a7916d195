//go:build !amd64

package collective

// Off amd64 every ring step runs the portable loop: useAVX is false.

func ringStepAVX(clk, busy, alpha, beta, size []float64) {
	panic("collective: no AVX kernel on this architecture")
}

func ringStepUniformAVX(clk, busy, dur []float64) {
	panic("collective: no AVX kernel on this architecture")
}
