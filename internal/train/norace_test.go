//go:build !race

package train

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
