//go:build !race

package tensor

func raceAddRows(dst, b []float64, stride int, ks []int) {}

func raceRank2(row, p, u []float64) {}

func raceRotateSweep(q, cs []float64) {}
