//go:build !race

package collective

// raceEnabled reports that this test binary runs under the race detector.
const raceEnabled = false
