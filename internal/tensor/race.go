//go:build race

package tensor

import (
	"runtime"
	"unsafe"
)

// raceAddRows tells the race detector what addRowsAVX, which it does not
// instrument, is about to touch: each row of b it reads, and dst, which it
// reads and writes. It touches nothing when either is empty. The terms
// themselves are the gathering goroutine's own stack; annotating them
// would move them to the heap and find nothing.
func raceAddRows(dst, b []float64, stride int, ks []int) {
	if len(dst) == 0 || len(ks) == 0 {
		return
	}
	n := len(dst) * 8
	for _, k := range ks {
		runtime.RaceReadRange(unsafe.Pointer(&b[k*stride]), n)
	}
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(dst)), n)
}
