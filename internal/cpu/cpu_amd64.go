package cpu

// HasAVX reports whether the CPU and the OS run AVX: CPUID's AVX and
// OSXSAVE bits, and XCR0 saving the YMM state. A package's AVX kernels run
// only when it is true.
var HasAVX = hasAVX()

func hasAVX() bool
