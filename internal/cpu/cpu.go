// Package cpu says which SIMD kernels this process runs. internal/exec's
// selection kernels and internal/stats' fold kernels have AVX2 assembly
// on amd64 and Go loops everywhere; the Go loops are the portable path and
// the reference the assembly is held to, bit for bit.
package cpu

// AVX2 selects the AVX2 kernels. It is set once, at init, from what the
// CPU and the OS support (CPUID and XGETBV on amd64; false elsewhere) —
// no option, flag or build tag chooses. Tests clear it to run a suite on
// the Go kernels; the scan reads it on every worker, so a test that flips
// it must not run beside another that scans.
var AVX2 = hasAVX2()
