//go:build !race

package collective

func raceRingStep(clk, busy, alpha, beta, size []float64) {}

func raceRingStepUniform(clk, busy, dur []float64) {}
