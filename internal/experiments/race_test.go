//go:build race

package experiments

// raceEnabled reports that this test binary runs under the race detector.
// The whole-figure judges then run a slice of their figure, each row by the
// figure's own per-row function: the race detector needs every code path
// once, not every row, and instrumented training is an order of magnitude
// slower. The native pass runs every whole figure and every assertion.
const raceEnabled = true
