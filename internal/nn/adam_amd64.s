#include "textflag.h"

// The step's eight constants live in X6-X13, each in both lanes, from the
// first pair to the last. Each pair takes adamUpdateGo's steps in its
// order: MULPD and ADDPD, never a fused multiply-add, then DIVPD, SQRTPD
// and SUBPD. Elements are loaded with MOVUPD: a Go slice of float64 is
// only 8-byte aligned, and SSE2 arithmetic on a memory operand needs 16.

// func adamPairs(val, grad, m, v []float64, c *adamCoef)
TEXT ·adamPairs(SB), NOSPLIT, $0-104
	MOVQ val_base+0(FP), DI
	MOVQ val_len+8(FP), CX
	MOVQ grad_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ c+96(FP), AX
	MOVSD 0(AX), X6   // β₁
	MOVSD 8(AX), X7   // 1−β₁
	MOVSD 16(AX), X8  // β₂
	MOVSD 24(AX), X9  // 1−β₂
	MOVSD 32(AX), X10 // bc1
	MOVSD 40(AX), X11 // bc2
	MOVSD 48(AX), X12 // lr
	MOVSD 56(AX), X13 // ε
	UNPCKLPD X6, X6
	UNPCKLPD X7, X7
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	UNPCKLPD X12, X12
	UNPCKLPD X13, X13
	SHRQ $1, CX
	JEQ done

pair:
	MOVUPD (SI), X0 // g
	MOVUPD (R8), X1
	MULPD X6, X1    // β₁·m
	MOVAPD X7, X4
	MULPD X0, X4    // (1−β₁)·g
	ADDPD X4, X1    // m'
	MOVUPD X1, (R8)
	MOVUPD (R9), X2
	MULPD X8, X2    // β₂·v
	MOVAPD X9, X5
	MULPD X0, X5    // (1−β₂)·g
	MULPD X0, X5    // ((1−β₂)·g)·g
	ADDPD X5, X2    // v'
	MOVUPD X2, (R9)
	DIVPD X10, X1   // m̂ = m'/bc1
	DIVPD X11, X2   // v̂ = v'/bc2
	SQRTPD X2, X2
	ADDPD X13, X2   // √v̂ + ε
	MULPD X12, X1   // lr·m̂
	DIVPD X2, X1
	MOVUPD (DI), X3
	SUBPD X1, X3
	MOVUPD X3, (DI)
	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNE pair

done:
	RET
