//go:build !race

package experiments

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
