package exec

// useAVX2 selects the AVX2 selection kernels (select_amd64.s) in the three
// entry points that have them — intsInRange, evalCmp's dictionary = and <>,
// and rowsOf. It is set once, here, from what the CPU and the OS support;
// tests flip it to hold the AVX2 kernels to the Go ones.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2, BMI2 and POPCNT and the OS
// saves the YMM registers across context switches (XCR0 bits 1 and 2).
// BMI2 comes with AVX2 in every x86-64-v3 CPU the kernels are written for.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2, bmi2 = 1 << 5, 1 << 8
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(avx2|bmi2) == avx2|bmi2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

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
