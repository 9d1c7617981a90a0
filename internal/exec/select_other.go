//go:build !amd64

package exec

// Off amd64 cpu.AVX2 is always false: the Go selection kernels are the only
// ones (see select_amd64.go), and these stand-ins are never called.

func intsInRangeAVX2(xs []int64, lo, width uint64, dst []uint64) { panic("exec: no AVX2 kernels") }

func u16InRangeAVX2(xs []uint16, lo, width uint16, dst []uint64) { panic("exec: no AVX2 kernels") }

func u8InRangeAVX2(xs []uint8, lo, width uint8, dst []uint64) { panic("exec: no AVX2 kernels") }

func rowsOfAVX2(bm []uint64, base int32, idxs []int32) { panic("exec: no AVX2 kernels") }
