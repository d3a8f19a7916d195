//go:build !race

package tensor

func raceAddRows(dst, b []float64, stride int, ks []int) {}

func raceAddPanel(dst []float64, rows int, a []float64, as int, bt []float64, nk int) {}

func raceRank2(row, p, u []float64) {}

func raceRotateSweep(q, cs []float64) {}
