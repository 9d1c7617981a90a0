package stats

// foldMaskedAVX2 adds the rows of xs that bm selects — bit j of bm[k] is
// xs[64k+j], which is in lane j mod 4 — to the lanes sx and sxx, for every
// whole word of bm: len(xs) is 64·len(bm).
//
//go:noescape
func foldMaskedAVX2(xs []float64, bm []uint64, sx, sxx *[Lanes]float64)

// foldCodeMaskedAVX2 is foldMaskedAVX2 over the rows whose code is c:
// codes[i] is the dictionary code of xs[i], compared eight rows at a time
// and ANDed into the selection byte.
//
//go:noescape
func foldCodeMaskedAVX2(xs []float64, codes []uint32, c uint32, bm []uint64, sx, sxx *[Lanes]float64)

// countCodeAVX2 returns how many rows bm selects whose code is c, over
// every whole word of bm: len(codes) is 64·len(bm).
//
//go:noescape
func countCodeAVX2(codes []uint32, c uint32, bm []uint64) int

// nibbleMasks[n] keeps lane i of four rows where bit i of nibble n is set:
// the VANDPD mask foldMaskedAVX2 and foldCodeMaskedAVX2 apply per 4 rows.
var nibbleMasks = func() (t [16][Lanes]uint64) {
	for n := range t {
		for i := range t[n] {
			if n&(1<<i) != 0 {
				t[n][i] = ^uint64(0)
			}
		}
	}
	return t
}()
