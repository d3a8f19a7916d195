package cluster

// chargeAVX adds s to clocks[i] and cat[i] for every i in
// [0, len(clocks)): len(clocks) is a multiple of four and cat is as long.
//
//go:noescape
func chargeAVX(clocks, cat []float64, s float64)
