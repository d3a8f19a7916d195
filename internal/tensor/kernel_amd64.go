package tensor

// avxSupported reports whether the CPU and the OS run AVX: CPUID's AVX and
// OSXSAVE bits, and XCR0 saving the YMM state.
var avxSupported = hasAVX()

// useAVX selects the kernel addRows runs. It is avxSupported, except in the
// tests that run each product once per path.
var useAVX = avxSupported

func hasAVX() bool

// addRowsAVX is addRows' body in AVX: VMULPD then VADDPD across four
// output columns per register, a strip of up to sixteen columns held in
// registers across every term. It reads whatever the terms point at:
// rowProduct has checked that every row lies in b.
//
//go:noescape
func addRowsAVX(dst, b []float64, stride int, ks []int, vs []float64)
