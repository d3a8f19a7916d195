//go:build !amd64

package cpu

// HasAVX is false off amd64: there is no AVX kernel to run.
const HasAVX = false
