//go:build !race

package collective

func raceRingStep(clk, busy, alpha, beta, size []float64) {}
