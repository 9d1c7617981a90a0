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

// EQ64B leaves the verdicts codes[64k:64k+64] == Y3 (1-byte codes, at
// (DI)) in row order in reg: two VPCMPEQB, each verdict byte's top bit
// taken by VPMOVMSKB, the second half shifted above the first. tmp is
// clobbered.
#define EQ64B(reg, tmp) \
	VPCMPEQB  (DI), Y3, Y4; \
	VPMOVMSKB Y4, reg; \
	VPCMPEQB  32(DI), Y3, Y5; \
	VPMOVMSKB Y5, tmp; \
	SHLQ      $32, tmp; \
	ORQ       tmp, reg

// func foldCodeMaskedAVX2(xs []float64, codes []uint8, c uint8, bm []uint64, sx, sxx *[Lanes]float64)
TEXT ·foldCodeMaskedAVX2(SB), NOSPLIT, $0-96
	MOVQ  xs_base+0(FP), SI
	MOVQ  codes_base+24(FP), DI
	MOVQ  bm_base+56(FP), BX
	MOVQ  bm_len+64(FP), CX
	MOVQ  sx+80(FP), AX
	MOVQ  sxx+88(FP), DX
	TESTQ CX, CX
	JZ    codeDone
	MOVBLZX c+48(FP), R10
	VMOVD R10, X3
	VPBROADCASTB X3, Y3
	LEAQ  ·nibbleMasks(SB), R8
	VMOVUPD (AX), Y0
	VMOVUPD (DX), Y1

codeLoop:
	MOVQ  (BX), R9
	TESTQ R9, R9
	JZ    codeNext
	EQ64B(R11, R12)
	ANDQ  R9, R11
	JZ    codeNext
	FOLD4(0, R11)
	FOLD4(32, R11)
	FOLD4(64, R11)
	FOLD4(96, R11)
	FOLD4(128, R11)
	FOLD4(160, R11)
	FOLD4(192, R11)
	FOLD4(224, R11)
	FOLD4(256, R11)
	FOLD4(288, R11)
	FOLD4(320, R11)
	FOLD4(352, R11)
	FOLD4(384, R11)
	FOLD4(416, R11)
	FOLD4(448, R11)
	FOLD4(480, R11)

codeNext:
	ADDQ $64, DI
	ADDQ $512, SI
	ADDQ $8, BX
	DECQ CX
	JNZ  codeLoop
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (DX)
	VZEROUPPER

codeDone:
	RET

// func countCodeAVX2(codes []uint8, c uint8, bm []uint64) int
TEXT ·countCodeAVX2(SB), NOSPLIT, $0-64
	MOVQ  codes_base+0(FP), DI
	MOVQ  bm_base+32(FP), BX
	MOVQ  bm_len+40(FP), CX
	XORQ  R12, R12
	TESTQ CX, CX
	JZ    countDone
	MOVBLZX c+24(FP), AX
	VMOVD AX, X3
	VPBROADCASTB X3, Y3

countLoop:
	EQ64B(AX, R11)
	ANDQ    (BX), AX
	POPCNTQ AX, AX
	ADDQ    AX, R12
	ADDQ    $64, DI
	ADDQ    $8, BX
	DECQ    CX
	JNZ     countLoop
	VZEROUPPER

countDone:
	MOVQ R12, ret+56(FP)
	RET
