#include "textflag.h"

// One multiply and one add of axpy4's column order, on four lanes of i:
// prod = c*a[i:i+4], each product rounded, then t = t + prod, rounded
// again (no FMA), t as the first source.
#define STEP(c, a, off, t, prod) \
	VMULPD off(a), c, prod \
	VADDPD prod, t, t

// func axpy4AVX2(c0, c1, c2, c3 float64, a0, a1, a2, a3, y []float64)
//
// y[i] += c0*a0[i], then c1*a1[i], c2*a2[i], c3*a3[i], for i below
// len(y) rounded down to a multiple of four: eight elements a turn in two
// registers, then at most one turn of four.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD c0+0(FP), Y0
	VBROADCASTSD c1+8(FP), Y1
	VBROADCASTSD c2+16(FP), Y2
	VBROADCASTSD c3+24(FP), Y3
	MOVQ a0_base+32(FP), R8
	MOVQ a1_base+56(FP), R9
	MOVQ a2_base+80(FP), R10
	MOVQ a3_base+104(FP), R11
	MOVQ y_base+128(FP), DI
	MOVQ y_len+136(FP), CX
	MOVQ CX, DX
	SHRQ $3, DX // DX = turns of eight
	JZ   four

eight:
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	STEP(Y0, R8, 0, Y4, Y6)
	STEP(Y0, R8, 32, Y5, Y7)
	STEP(Y1, R9, 0, Y4, Y6)
	STEP(Y1, R9, 32, Y5, Y7)
	STEP(Y2, R10, 0, Y4, Y6)
	STEP(Y2, R10, 32, Y5, Y7)
	STEP(Y3, R11, 0, Y4, Y6)
	STEP(Y3, R11, 32, Y5, Y7)
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $64, DI
	DECQ    DX
	JNZ     eight

four:
	TESTQ $4, CX
	JZ    done
	VMOVUPD (DI), Y4
	STEP(Y0, R8, 0, Y4, Y6)
	STEP(Y1, R9, 0, Y4, Y6)
	STEP(Y2, R10, 0, Y4, Y6)
	STEP(Y3, R11, 0, Y4, Y6)
	VMOVUPD Y4, (DI)

done:
	VZEROUPPER
	RET
