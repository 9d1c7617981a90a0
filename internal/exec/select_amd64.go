package exec

// The AVX2 selection kernels below run when cpu.AVX2 is set; vector.go's
// intsInRange, evalCmp (dictionary = and <>) and rowsOf choose them.

// intsInRangeAVX2 sets word k of dst to the verdicts of xs[64k:64k+64] for
// every whole word of xs: bit i where int64(xs[i]-lo) ≤ int64(width), four
// rows a compare. intsInRange biases lo and width by the sign bit, which
// turns its one unsigned comparison into this signed one.
//
//go:noescape
func intsInRangeAVX2(xs []int64, lo, width uint64, dst []uint64)

// codesEqAVX2 sets word k of dst to the verdicts codes[i] == c of
// codes[64k:64k+64] for every whole word of codes, eight rows a compare.
//
//go:noescape
func codesEqAVX2(codes []uint32, c uint32, dst []uint64)

// rowsOfAVX2 writes the set bits of bm as ascending row numbers (bit k is
// row base+k) from idxs[0] on, a byte of bm at a time through setBitPos.
// Every byte stores eight lanes, so idxs must hold 8 entries past the
// bitmap's population.
//
//go:noescape
func rowsOfAVX2(bm []uint64, base int32, idxs []int32)

// setBitPos[b] lists the positions of the set bits of byte b, ascending,
// zero-padded to eight: what rowsOfAVX2 widens and offsets per byte.
var setBitPos = func() (t [256][8]uint8) {
	for b := range t {
		k := 0
		for i := uint8(0); i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b][k] = i
				k++
			}
		}
	}
	return t
}()
