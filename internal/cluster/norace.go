//go:build !race

package cluster

func raceCharge(clocks, cat []float64) {}
