package exec

// The AVX2 selection kernels below run when cpu.AVX2 is set; vector.go's
// intsInRange, u16InRange, u8InRange and rowsOf choose them.

// intsInRangeAVX2 sets word k of dst to the verdicts of xs[64k:64k+64] for
// every whole word of xs: bit i where int64(xs[i]-lo) ≤ int64(width), four
// rows a compare. intsInRange biases lo and width by the sign bit, which
// turns its one unsigned comparison into this signed one.
//
//go:noescape
func intsInRangeAVX2(xs []int64, lo, width uint64, dst []uint64)

// u16InRangeAVX2 sets word k of dst to the verdicts of xs[64k:64k+64] for
// every whole word of xs: bit i where uint16(xs[i]-lo) ≤ width, sixteen rows
// a compare. AVX2 compares 16-bit words signed only; the kernel flips the
// sign bit of both sides, which keeps the unsigned order (intsInRange's
// trick at 16 bits), and compares complements, (lo-1)-x against ^width, so
// that x is subtracted as it is loaded.
//
//go:noescape
func u16InRangeAVX2(xs []uint16, lo, width uint16, dst []uint64)

// u8InRangeAVX2 is u16InRangeAVX2 over 1-byte codes, thirty-two rows a
// compare: x passes where uint8(x-lo) ≤ width, that is where the unsigned
// minimum of x-lo and width is x-lo (VPMINUB then VPCMPEQB), so no sign
// bit needs flipping.
//
//go:noescape
func u8InRangeAVX2(xs []uint8, lo, width uint8, dst []uint64)

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
