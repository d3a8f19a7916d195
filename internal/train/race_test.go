//go:build race

package train

// raceEnabled reports that this test binary runs under the race detector,
// where the convergence judges train for fewer steps (judgeIters).
const raceEnabled = true
