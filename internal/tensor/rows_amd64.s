#include "textflag.h"

// The 16 outputs live in X0-X7, two per register, from the load of out to
// the store back. Every row adds into all eight with MULPD then ADDPD,
// never a fused multiply-add, so each output sees the multiplies and adds
// of rows.go's loops in the same order. Rows are loaded with MOVUPD: a
// Go slice of float64 is only 8-byte aligned, and SSE2 arithmetic on a
// memory operand needs 16.

// func mulAddRows16(out, m []float64, stride int, rows []int, x []float64)
TEXT ·mulAddRows16(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rows_base+56(FP), BX
	MOVQ rows_len+64(FP), CX
	MOVQ x_base+80(FP), R8
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	TESTQ CX, CX
	JEQ mulstore

mulrow:
	MOVQ (BX), AX
	MOVSD (R8)(AX*8), X8
	UNPCKLPD X8, X8
	IMULQ DX, AX
	ADDQ SI, AX
	MOVUPD 0(AX), X9
	MOVUPD 16(AX), X10
	MOVUPD 32(AX), X11
	MOVUPD 48(AX), X12
	MULPD X8, X9
	MULPD X8, X10
	MULPD X8, X11
	MULPD X8, X12
	ADDPD X9, X0
	ADDPD X10, X1
	ADDPD X11, X2
	ADDPD X12, X3
	MOVUPD 64(AX), X9
	MOVUPD 80(AX), X10
	MOVUPD 96(AX), X11
	MOVUPD 112(AX), X12
	MULPD X8, X9
	MULPD X8, X10
	MULPD X8, X11
	MULPD X8, X12
	ADDPD X9, X4
	ADDPD X10, X5
	ADDPD X11, X6
	ADDPD X12, X7
	ADDQ $8, BX
	DECQ CX
	JNE mulrow

mulstore:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET

// func addRows16(out, m []float64, stride int, rows []int)
TEXT ·addRows16(SB), NOSPLIT, $0-80
	MOVQ out_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ rows_base+56(FP), BX
	MOVQ rows_len+64(FP), CX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	TESTQ CX, CX
	JEQ addstore

addrow:
	MOVQ (BX), AX
	IMULQ DX, AX
	ADDQ SI, AX
	MOVUPD 0(AX), X8
	MOVUPD 16(AX), X9
	MOVUPD 32(AX), X10
	MOVUPD 48(AX), X11
	ADDPD X8, X0
	ADDPD X9, X1
	ADDPD X10, X2
	ADDPD X11, X3
	MOVUPD 64(AX), X8
	MOVUPD 80(AX), X9
	MOVUPD 96(AX), X10
	MOVUPD 112(AX), X11
	ADDPD X8, X4
	ADDPD X9, X5
	ADDPD X10, X6
	ADDPD X11, X7
	ADDQ $8, BX
	DECQ CX
	JNE addrow

addstore:
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	RET
