// Package cpu reports the instruction-set features the assembly kernels of
// other packages need, checked once at initialization. It imports nothing,
// so every package with a kernel reads the same check.
package cpu
