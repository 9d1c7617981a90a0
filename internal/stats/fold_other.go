//go:build !amd64

package stats

// Off amd64 cpu.AVX2 is always false: the Go fold kernels are the only
// ones (see fold.go), and these stand-ins are never called.

func foldMaskedAVX2(xs []float64, bm []uint64, sx, sxx *[Lanes]float64) {
	panic("stats: no AVX2 kernels")
}

func foldCodeMaskedAVX2(xs []float64, codes []uint32, c uint32, bm []uint64, sx, sxx *[Lanes]float64) {
	panic("stats: no AVX2 kernels")
}

func countCodeAVX2(codes []uint32, c uint32, bm []uint64) int { panic("stats: no AVX2 kernels") }
