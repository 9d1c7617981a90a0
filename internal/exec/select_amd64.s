#include "textflag.h"

// AVX2 selection kernels (see select_amd64.go). Each processes whole
// 64-row words only; the Go callers in vector.go handle the tail.

// RANGE4 tests xs[4k:4k+4] (k = off/32) and ORs the four FAIL bits into AX
// at bit sh: int64(x-lo) > int64(width), with Y0 = lo and Y1 = width.
#define RANGE4(off, sh) \
	VMOVDQU   off(SI), Y2; \
	VPSUBQ    Y0, Y2, Y2; \
	VPCMPGTQ  Y1, Y2, Y2; \
	VMOVMSKPD Y2, BX; \
	SHLQ      $sh, BX; \
	ORQ       BX, AX

// func intsInRangeAVX2(xs []int64, lo, width uint64, dst []uint64)
TEXT ·intsInRangeAVX2(SB), NOSPLIT, $0-64
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ dst_base+40(FP), DI
	SHRQ $6, CX
	JZ   rangeDone
	VPBROADCASTQ lo+24(FP), Y0
	VPBROADCASTQ width+32(FP), Y1

rangeLoop:
	VMOVDQU   (SI), Y2
	VPSUBQ    Y0, Y2, Y2
	VPCMPGTQ  Y1, Y2, Y2
	VMOVMSKPD Y2, AX
	RANGE4(32, 4)
	RANGE4(64, 8)
	RANGE4(96, 12)
	RANGE4(128, 16)
	RANGE4(160, 20)
	RANGE4(192, 24)
	RANGE4(224, 28)
	RANGE4(256, 32)
	RANGE4(288, 36)
	RANGE4(320, 40)
	RANGE4(352, 44)
	RANGE4(384, 48)
	RANGE4(416, 52)
	RANGE4(448, 56)
	RANGE4(480, 60)
	NOTQ AX
	MOVQ AX, (DI)
	ADDQ $512, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  rangeLoop
	VZEROUPPER

rangeDone:
	RET

// EQ8 compares codes[8k:8k+8] (k = off/32) with Y0 and ORs the eight
// verdicts into AX at bit sh.
#define EQ8(off, sh) \
	VPCMPEQD  off(SI), Y0, Y1; \
	VMOVMSKPS Y1, BX; \
	SHLQ      $sh, BX; \
	ORQ       BX, AX

// func codesEqAVX2(codes []uint32, c uint32, dst []uint64)
TEXT ·codesEqAVX2(SB), NOSPLIT, $0-56
	MOVQ codes_base+0(FP), SI
	MOVQ codes_len+8(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $6, CX
	JZ   eqDone
	MOVL c+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0

eqLoop:
	VPCMPEQD  (SI), Y0, Y1
	VMOVMSKPS Y1, AX
	EQ8(32, 8)
	EQ8(64, 16)
	EQ8(96, 24)
	EQ8(128, 32)
	EQ8(160, 40)
	EQ8(192, 48)
	EQ8(224, 56)
	MOVQ AX, (DI)
	ADDQ $256, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  eqLoop
	VZEROUPPER

eqDone:
	RET

// ROWS8 lists the set bits of R9's low byte: the byte's positions from the
// LUT (R8), widened to 32 bits, plus Y0 (the byte's first row), stored as
// eight lanes at DI, which then advances past the byte's POPCNT rows. Y0
// moves on to the next byte's first row (Y2 holds 8s) and R9 to its bits.
#define ROWS8 \
	MOVBQZX    R9, R10; \
	VPMOVZXBD  (R8)(R10*8), Y1; \
	VPADDD     Y0, Y1, Y1; \
	VMOVDQU    Y1, (DI); \
	POPCNTL    R10, R10; \
	LEAQ       (DI)(R10*4), DI; \
	VPADDD     Y2, Y0, Y0; \
	SHRQ       $8, R9

DATA rowsStep<>+0(SB)/4, $8
DATA rowsStep<>+4(SB)/4, $64
GLOBL rowsStep<>(SB), RODATA|NOPTR, $8

// func rowsOfAVX2(bm []uint64, base int32, idxs []int32)
TEXT ·rowsOfAVX2(SB), NOSPLIT, $0-56
	MOVQ bm_base+0(FP), SI
	MOVQ bm_len+8(FP), CX
	MOVQ idxs_base+32(FP), DI
	TESTQ CX, CX
	JZ   rowsDone
	LEAQ ·setBitPos(SB), R8
	MOVL base+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	VPBROADCASTD rowsStep<>+0(SB), Y2
	VPBROADCASTD rowsStep<>+4(SB), Y3

rowsLoop:
	MOVQ  (SI), R9
	TESTQ R9, R9
	JZ    rowsEmpty
	ROWS8
	ROWS8
	ROWS8
	ROWS8
	ROWS8
	ROWS8
	ROWS8
	ROWS8
	ADDQ $8, SI
	DECQ CX
	JNZ  rowsLoop
	VZEROUPPER
	RET

rowsEmpty:
	VPADDD Y3, Y0, Y0
	ADDQ   $8, SI
	DECQ   CX
	JNZ    rowsLoop
	VZEROUPPER

rowsDone:
	RET
