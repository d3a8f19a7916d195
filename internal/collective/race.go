//go:build race

package collective

import (
	"runtime"
	"unsafe"
)

// raceRingStep tells the race detector what ringStepAVX, which it does not
// instrument, is about to touch: the step's windows of clk, α, β and size,
// which it reads, and clk and busy, which it writes (busy after reading
// it). ringStep calls it on a pass of at least four links only.
func raceRingStep(clk, busy, alpha, beta, size []float64) {
	n := len(busy) * 8
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(clk)), len(clk)*8)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(alpha)), n)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(beta)), n)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(size)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(clk)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(busy)), n)
}

// raceRingStepUniform tells the race detector what ringStepUniformAVX is
// about to touch: the step's windows of clk and dur, which it reads, and
// clk and busy, which it writes (busy after reading it). ringStepUniform
// calls it on a pass of at least four links only.
func raceRingStepUniform(clk, busy, dur []float64) {
	n := len(busy) * 8
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(clk)), len(clk)*8)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(dur)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(clk)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(busy)), n)
}
