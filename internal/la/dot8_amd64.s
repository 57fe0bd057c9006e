#include "textflag.h"

// func dot8AVX2(a *[8][]float64, x []float64, out *[8]float64)
//
// out[k] = sum of a[k][r]*x[r] for r below len(x) rounded down to a
// multiple of two, from +0 in ascending r. Y0 holds columns 0..3, Y1
// columns 4..7, lane k for column k. Each turn takes two rows: a 128-bit
// load per column, columns k and k+2 paired in the two halves of a
// register, and one unpack per row and group of four gives that row's
// entries in lane order. x[r] is broadcast, multiplied in (each product
// rounded) and added to the accumulator (rounded again, no FMA), the
// accumulator as first source; then x[r+1].
TEXT ·dot8AVX2(SB), NOSPLIT, $0-40
	MOVQ   a+0(FP), DI
	MOVQ   0(DI), R8
	MOVQ   24(DI), R9
	MOVQ   48(DI), R10
	MOVQ   72(DI), R11
	MOVQ   96(DI), R12
	MOVQ   120(DI), R13
	MOVQ   144(DI), AX
	MOVQ   168(DI), BX
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), DX
	MOVQ   out+32(FP), DI
	ANDQ   $-2, DX             // DX = rows covered
	XORQ   CX, CX              // CX = r
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	TESTQ  DX, DX
	JZ     done

pair:
	VMOVUPD      (R8)(CX*8), X4
	VINSERTF128  $1, (R10)(CX*8), Y4, Y4 // (a0[r], a0[r+1], a2[r], a2[r+1])
	VMOVUPD      (R9)(CX*8), X5
	VINSERTF128  $1, (R11)(CX*8), Y5, Y5 // (a1[r], a1[r+1], a3[r], a3[r+1])
	VMOVUPD      (R12)(CX*8), X6
	VINSERTF128  $1, (AX)(CX*8), Y6, Y6  // (a4[r], a4[r+1], a6[r], a6[r+1])
	VMOVUPD      (R13)(CX*8), X7
	VINSERTF128  $1, (BX)(CX*8), Y7, Y7  // (a5[r], a5[r+1], a7[r], a7[r+1])
	VUNPCKLPD    Y5, Y4, Y8              // (a0[r], a1[r], a2[r], a3[r])
	VUNPCKHPD    Y5, Y4, Y9              // (a0[r+1], a1[r+1], a2[r+1], a3[r+1])
	VUNPCKLPD    Y7, Y6, Y10             // (a4[r], a5[r], a6[r], a7[r])
	VUNPCKHPD    Y7, Y6, Y11             // (a4[r+1], a5[r+1], a6[r+1], a7[r+1])
	VBROADCASTSD (SI)(CX*8), Y12
	VBROADCASTSD 8(SI)(CX*8), Y13
	VMULPD       Y12, Y8, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y12, Y10, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       Y13, Y9, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       Y13, Y11, Y11
	VADDPD       Y11, Y1, Y1
	ADDQ         $2, CX
	CMPQ         CX, DX
	JNE          pair

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
