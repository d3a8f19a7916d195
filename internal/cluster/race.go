//go:build race

package cluster

import (
	"runtime"
	"unsafe"
)

// raceCharge tells the race detector what chargeAVX, which it does not
// instrument, is about to touch: clocks and cat, which it reads and
// writes. chargeUniform calls it on at least four ranks only.
func raceCharge(clocks, cat []float64) {
	n := len(clocks) * 8
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(clocks)), n)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(cat)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(clocks)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(cat)), n)
}
