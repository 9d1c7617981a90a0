//go:build !amd64

package exec

// useAVX2 is always false off amd64: the Go selection kernels are the only
// ones (see select_amd64.go).
var useAVX2 = false

func intsInRangeAVX2(xs []int64, lo, width uint64, dst []uint64) { panic("exec: no AVX2 kernels") }

func codesEqAVX2(codes []uint32, c uint32, dst []uint64) { panic("exec: no AVX2 kernels") }

func rowsOfAVX2(bm []uint64, base int32, idxs []int32) { panic("exec: no AVX2 kernels") }
