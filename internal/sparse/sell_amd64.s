#include "textflag.h"

// func sellMulVecAVX2(y, x []float64, chunkPtr []int, colIdx []int32, val []float64, chunks int)
//
// One chunk at a time: its eight rows are the eight lanes of Y0 (rows
// 0-3) and Y1 (rows 4-7), both started from +0. Per slot the eight column
// indices are compared against -1 to form the gather mask, x is gathered
// for the lanes that hold an entry (a padding lane is not loaded and
// reads +0), multiplied by the slot's values and added to the sums with
// the sum as the first source. y is written once per chunk.
TEXT ·sellMulVecAVX2(SB), NOSPLIT, $0-128
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ chunkPtr_base+48(FP), R8
	MOVQ colIdx_base+72(FP), R9
	MOVQ val_base+96(FP), R10
	MOVQ chunks+120(FP), CX
	TESTQ CX, CX
	JLE  done
	VPCMPEQD X15, X15, X15 // -1 in every int32 lane
	MOVQ (R8), AX          // AX = chunkPtr[k], the slot cursor

chunk:
	MOVQ   8(R8), BX // BX = chunkPtr[k+1]
	ADDQ   $8, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CMPQ   AX, BX
	JGE    store

slot:
	VMOVDQU    (R9)(AX*4), X2   // columns of rows 0-3
	VMOVDQU    16(R9)(AX*4), X3 // columns of rows 4-7
	VPCMPGTD   X15, X2, X4      // col > -1: the lane holds an entry
	VPCMPGTD   X15, X3, X5
	VPMOVSXDQ  X4, Y4           // widened to the gather's 64-bit mask
	VPMOVSXDQ  X5, Y5
	VXORPD     Y6, Y6, Y6       // a masked-out lane keeps this +0
	VXORPD     Y7, Y7, Y7
	VGATHERDPD Y4, (SI)(X2*8), Y6
	VGATHERDPD Y5, (SI)(X3*8), Y7
	VMOVUPD    (R10)(AX*8), Y8
	VMOVUPD    32(R10)(AX*8), Y9
	VMULPD     Y6, Y8, Y8       // val * x
	VMULPD     Y7, Y9, Y9
	VADDPD     Y8, Y0, Y0       // sum + product
	VADDPD     Y9, Y1, Y1
	ADDQ       $8, AX
	CMPQ       AX, BX
	JLT        slot

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	MOVQ    BX, AX
	DECQ    CX
	JNZ     chunk

done:
	VZEROUPPER
	RET
