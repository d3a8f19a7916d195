//go:build race

package collective

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation changes how the compiler allocates the ring
// step's registers (TestRingKernelMatchesPortable).
const raceEnabled = true
