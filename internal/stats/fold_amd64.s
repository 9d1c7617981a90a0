#include "textflag.h"

// AVX2 fold kernels (see fold_amd64.go). Each processes whole 64-row words
// of a selection bitmap only; the Go callers in fold.go fold the rows on
// either side. Lane sums live in Y0 (Σx) and Y1 (Σx²), lane i holding the
// rows ≡ i mod 4; R8 points at nibbleMasks.

// FOLD4 folds xs[4k:4k+4] (xs at off(SI)) under the four selection bits in
// the low nibble of reg, which it then shifts to the next nibble: VANDPD
// with the nibble's mask zeroes the unselected rows, and each lane adds x,
// then x·x rounded on its own — VMULPD, then VADDPD, never an FMA.
#define FOLD4(off, reg) \
	MOVQ    reg, R10; \
	ANDQ    $15, R10; \
	SHLQ    $5, R10; \
	VMOVUPD off(SI), Y2; \
	VANDPD  (R8)(R10*1), Y2, Y2; \
	VADDPD  Y2, Y0, Y0; \
	VMULPD  Y2, Y2, Y2; \
	VADDPD  Y2, Y1, Y1; \
	SHRQ    $4, reg

// func foldMaskedAVX2(xs []float64, bm []uint64, sx, sxx *[Lanes]float64)
TEXT ·foldMaskedAVX2(SB), NOSPLIT, $0-64
	MOVQ  xs_base+0(FP), SI
	MOVQ  bm_base+24(FP), BX
	MOVQ  bm_len+32(FP), CX
	MOVQ  sx+48(FP), AX
	MOVQ  sxx+56(FP), DX
	TESTQ CX, CX
	JZ    maskedDone
	LEAQ  ·nibbleMasks(SB), R8
	VMOVUPD (AX), Y0
	VMOVUPD (DX), Y1

maskedLoop:
	MOVQ  (BX), R9
	TESTQ R9, R9
	JZ    maskedNext
	FOLD4(0, R9)
	FOLD4(32, R9)
	FOLD4(64, R9)
	FOLD4(96, R9)
	FOLD4(128, R9)
	FOLD4(160, R9)
	FOLD4(192, R9)
	FOLD4(224, R9)
	FOLD4(256, R9)
	FOLD4(288, R9)
	FOLD4(320, R9)
	FOLD4(352, R9)
	FOLD4(384, R9)
	FOLD4(416, R9)
	FOLD4(448, R9)
	FOLD4(480, R9)

maskedNext:
	ADDQ $512, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  maskedLoop
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (DX)
	VZEROUPPER

maskedDone:
	RET

// CODE16 folds the rows of xs[16k:16k+16] (at xoff(SI) on) whose codes (at
// coff(DI)) equal Y3 and whose selection bits are set in the low 16 bits of
// R9, which it then shifts to the next 16. One VPCMPEQW compares the 16
// codes; VPACKSSWB narrows the verdict words of its two halves to bytes, in
// row order, for VPMOVMSKB.
#define CODE16(coff, xoff) \
	VPCMPEQW     coff(DI), Y3, Y4; \
	VEXTRACTI128 $1, Y4, X5; \
	VPACKSSWB    X5, X4, X4; \
	VPMOVMSKB    X4, R11; \
	ANDQ         R9, R11; \
	FOLD4(xoff, R11); \
	FOLD4(xoff+32, R11); \
	FOLD4(xoff+64, R11); \
	FOLD4(xoff+96, R11); \
	SHRQ         $16, R9

// func foldCodeMaskedAVX2(xs []float64, codes []uint16, c uint16, bm []uint64, sx, sxx *[Lanes]float64)
TEXT ·foldCodeMaskedAVX2(SB), NOSPLIT, $0-96
	MOVQ  xs_base+0(FP), SI
	MOVQ  codes_base+24(FP), DI
	MOVQ  bm_base+56(FP), BX
	MOVQ  bm_len+64(FP), CX
	MOVQ  sx+80(FP), AX
	MOVQ  sxx+88(FP), DX
	TESTQ CX, CX
	JZ    codeDone
	MOVWLZX c+48(FP), R10
	VMOVD R10, X3
	VPBROADCASTW X3, Y3
	LEAQ  ·nibbleMasks(SB), R8
	VMOVUPD (AX), Y0
	VMOVUPD (DX), Y1

codeLoop:
	MOVQ  (BX), R9
	TESTQ R9, R9
	JZ    codeNext
	CODE16(0, 0)
	CODE16(32, 128)
	CODE16(64, 256)
	CODE16(96, 384)

codeNext:
	ADDQ $128, DI
	ADDQ $512, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  codeLoop
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (DX)
	VZEROUPPER

codeDone:
	RET

// EQ32 leaves the verdicts codes[32k:32k+32] == Y3 (at off(DI)) in row
// order in reg's low 32 bits: two VPCMPEQW, their verdict words narrowed to
// bytes by VPACKSSWB, whose interleaved 128-bit halves VPERMQ reorders.
#define EQ32(off, reg) \
	VPCMPEQW  off(DI), Y3, Y4; \
	VPCMPEQW  off+32(DI), Y3, Y5; \
	VPACKSSWB Y5, Y4, Y4; \
	VPERMQ    $0xD8, Y4, Y4; \
	VPMOVMSKB Y4, reg

// func countCodeAVX2(codes []uint16, c uint16, bm []uint64) int
TEXT ·countCodeAVX2(SB), NOSPLIT, $0-64
	MOVQ  codes_base+0(FP), DI
	MOVQ  bm_base+32(FP), BX
	MOVQ  bm_len+40(FP), CX
	XORQ  R12, R12
	TESTQ CX, CX
	JZ    countDone
	MOVWLZX c+24(FP), AX
	VMOVD AX, X3
	VPBROADCASTW X3, Y3

countLoop:
	EQ32(0, AX)
	EQ32(64, R11)
	SHLQ    $32, R11
	ORQ     R11, AX
	ANDQ    (BX), AX
	POPCNTQ AX, AX
	ADDQ    AX, R12
	ADDQ    $128, DI
	ADDQ    $8, BX
	DECQ    CX
	JNZ     countLoop
	VZEROUPPER

countDone:
	MOVQ R12, ret+56(FP)
	RET
