#include "textflag.h"

// One row of the tile: row holds (a0[r], a1[r], a2[r], a3[r]); b_j[r] is
// broadcast, multiplied in (each product rounded) and added to column j's
// accumulator (rounded again, no FMA), the accumulator as first source.
#define ROW(off, row) \
	VBROADCASTSD off(R12)(CX*8), Y8 \
	VMULPD       Y8, row, Y8 \
	VADDPD       Y8, Y0, Y0 \
	VBROADCASTSD off(R13)(CX*8), Y9 \
	VMULPD       Y9, row, Y9 \
	VADDPD       Y9, Y1, Y1 \
	VBROADCASTSD off(AX)(CX*8), Y10 \
	VMULPD       Y10, row, Y10 \
	VADDPD       Y10, Y2, Y2 \
	VBROADCASTSD off(BX)(CX*8), Y11 \
	VMULPD       Y11, row, Y11 \
	VADDPD       Y11, Y3, Y3

// func gramTileAVX2(a0, a1, a2, a3, b0, b1, b2, b3 []float64, out *[16]float64)
//
// out[4j+i] = sum of a_i[r]*b_j[r] for r below len(b0) rounded down to a
// multiple of two, in ascending r. Y0..Y3 hold columns b0..b3 of the
// tile, lane i for a_i. Each turn takes two rows: a 128-bit load per A
// column, a0/a2 and a1/a3 paired in the two halves of a register, and
// one unpack per row gives that row's four A entries in lane order.
TEXT ·gramTileAVX2(SB), NOSPLIT, $0-200
	MOVQ   a0_base+0(FP), R8
	MOVQ   a1_base+24(FP), R9
	MOVQ   a2_base+48(FP), R10
	MOVQ   a3_base+72(FP), R11
	MOVQ   b0_base+96(FP), R12
	MOVQ   b0_len+104(FP), DX
	MOVQ   b1_base+120(FP), R13
	MOVQ   b2_base+144(FP), AX
	MOVQ   b3_base+168(FP), BX
	MOVQ   out+192(FP), DI
	ANDQ   $-2, DX             // DX = rows covered
	XORQ   CX, CX              // CX = r
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  DX, DX
	JZ     done

pair:
	VMOVUPD     (R8)(CX*8), X4
	VINSERTF128 $1, (R10)(CX*8), Y4, Y4 // (a0[r], a0[r+1], a2[r], a2[r+1])
	VMOVUPD     (R9)(CX*8), X5
	VINSERTF128 $1, (R11)(CX*8), Y5, Y5 // (a1[r], a1[r+1], a3[r], a3[r+1])
	VUNPCKLPD   Y5, Y4, Y6              // (a0[r], a1[r], a2[r], a3[r])
	VUNPCKHPD   Y5, Y4, Y7              // (a0[r+1], a1[r+1], a2[r+1], a3[r+1])
	ROW(0, Y6)
	ROW(8, Y7)
	ADDQ        $2, CX
	CMPQ        CX, DX
	JNE         pair

done:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
