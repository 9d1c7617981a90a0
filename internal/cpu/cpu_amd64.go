package cpu

// hasAVX2 reports whether the CPU has AVX2, BMI2 and POPCNT and the OS
// saves the YMM registers across context switches (XCR0 bits 1 and 2).
// BMI2 comes with AVX2 in every x86-64-v3 CPU the kernels are written for.
func hasAVX2() bool {
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
