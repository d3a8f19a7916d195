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

// raceAddPanel tells the race detector what addPanelAVX is about to touch:
// the nk coefficients of each of the block's rows of a and the bt panel,
// which it reads, and dst, which it reads and writes. addPanel calls it on
// a non-empty block only.
func raceAddPanel(dst []float64, rows int, a []float64, as int, bt []float64, nk int) {
	for r := 0; r < rows; r++ {
		runtime.RaceReadRange(unsafe.Pointer(&a[r*as]), nk*8)
	}
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(bt)), len(bt)*8)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(dst)), len(dst)*8)
}

// raceRank2 tells the race detector that rank2AVX reads p and u and reads
// and writes row, all of the same length.
func raceRank2(row, p, u []float64) {
	if len(row) == 0 {
		return
	}
	n := len(row) * 8
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(p)), n)
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(u)), n)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(row)), n)
}

// raceRotateSweep tells the race detector that rotateSweepAVX reads cs and
// reads and writes q, the rows of its sweep.
func raceRotateSweep(q, cs []float64) {
	if len(q) == 0 || len(cs) == 0 {
		return
	}
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(cs)), len(cs)*8)
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(q)), len(q)*8)
}
