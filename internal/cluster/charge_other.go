//go:build !amd64

package cluster

// Off amd64 every charge runs ComputeRanks' loop: useAVX is false.

func chargeAVX(clocks, cat []float64, s float64) {
	panic("cluster: no AVX kernel on this architecture")
}
