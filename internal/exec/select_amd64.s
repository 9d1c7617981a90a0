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

// RANGE32 tests xs[32k:32k+32] (at off(SI)) and leaves the 32 FAIL verdicts
// in row order in reg's low 32 bits, sixteen rows a VPCMPGTW. x passes when
// uint16(x-lo) ≤ width, that is when its complement, (lo-1)-x, is at least
// ^width, unsigned. AVX2 compares 16-bit words signed only, so both sides
// carry the sign bit flipped, which keeps the unsigned order: Y0 holds
// (lo-1)^0x8000, from which x is subtracted as it is loaded, and Y1 holds
// ^width^0x8000; x fails where Y1 > Y0-x.
// VPACKSSWB narrows each verdict word to a byte (0xFFFF saturates to 0xFF,
// 0 stays 0) but interleaves the two compares' 128-bit halves; VPERMQ puts
// the four 8-row quarters back in order before VPMOVMSKB takes the bits.
#define RANGE32(off, reg) \
	VPSUBW    off(SI), Y0, Y2; \
	VPSUBW    off+32(SI), Y0, Y3; \
	VPCMPGTW  Y2, Y1, Y2; \
	VPCMPGTW  Y3, Y1, Y3; \
	VPACKSSWB Y3, Y2, Y2; \
	VPERMQ    $0xD8, Y2, Y2; \
	VPMOVMSKB Y2, reg

// func u16InRangeAVX2(xs []uint16, lo, width uint16, dst []uint64)
TEXT ·u16InRangeAVX2(SB), NOSPLIT, $0-56
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $6, CX
	JZ   u16Done
	MOVWLZX lo+24(FP), AX
	DECL  AX
	XORL  $0x8000, AX
	VMOVD AX, X0
	VPBROADCASTW X0, Y0
	MOVWLZX width+26(FP), AX
	XORL  $0x7FFF, AX
	VMOVD AX, X1
	VPBROADCASTW X1, Y1

u16Loop:
	RANGE32(0, AX)
	RANGE32(64, BX)
	SHLQ $32, BX
	ORQ  BX, AX
	NOTQ AX
	MOVQ AX, (DI)
	ADDQ $128, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  u16Loop
	VZEROUPPER

u16Done:
	RET

// RANGE32B tests xs[32k:32k+32] (1-byte codes, at off(SI)) and leaves the
// 32 PASS verdicts in row order in reg's low 32 bits: y = x-lo (Y0 holds
// lo), and x passes where the unsigned minimum of y and width (Y1) is y.
#define RANGE32B(off, reg) \
	VMOVDQU   off(SI), Y2; \
	VPSUBB    Y0, Y2, Y2; \
	VPMINUB   Y1, Y2, Y3; \
	VPCMPEQB  Y2, Y3, Y3; \
	VPMOVMSKB Y3, reg

// func u8InRangeAVX2(xs []uint8, lo, width uint8, dst []uint64)
TEXT ·u8InRangeAVX2(SB), NOSPLIT, $0-56
	MOVQ xs_base+0(FP), SI
	MOVQ xs_len+8(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $6, CX
	JZ   u8Done
	MOVBLZX lo+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTB X0, Y0
	MOVBLZX width+25(FP), AX
	VMOVD AX, X1
	VPBROADCASTB X1, Y1

u8Loop:
	RANGE32B(0, AX)
	RANGE32B(32, BX)
	SHLQ $32, BX
	ORQ  BX, AX
	MOVQ AX, (DI)
	ADDQ $64, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  u8Loop
	VZEROUPPER

u8Done:
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
