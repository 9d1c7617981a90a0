//go:build !amd64

package cpu

// hasAVX2 is false off amd64: the Go kernels are the only ones.
func hasAVX2() bool { return false }
