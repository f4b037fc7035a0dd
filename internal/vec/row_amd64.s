//go:build amd64 && !purego

// SSE2 bodies of L2SqRow and DotRow at 4 dims (row.go). Every lane holds
// one dim of four points, and every sum is formed in the order the Go loop
// forms it, so each SUBPS/MULPS/ADDPS rounds exactly like the scalar
// operation it replaces.

#include "textflag.h"

// The row kernels score four points c0..c3 (64 bytes) per iteration.
// TRANSPOSE4 turns the four points in X0..X3 into dim-major columns:
// X1 = dim 0 of c0..c3, X9 = dim 1, X3 = dim 2, X2 = dim 3. Along the way
// X8 = c0[0] c1[0] c0[1] c1[1], X0 = c0[2] c1[2] c0[3] c1[3], and X9, X2
// the same for c2, c3; MOVLHPS then joins low halves, MOVHLPS high ones.
#define TRANSPOSE4 \
	MOVAPS   X0, X8 \
	UNPCKLPS X1, X8 \
	UNPCKHPS X1, X0 \
	MOVAPS   X2, X9 \
	UNPCKLPS X3, X9 \
	UNPCKHPS X3, X2 \
	MOVAPS   X8, X1 \
	MOVLHPS  X9, X1 \
	MOVHLPS  X8, X9 \
	MOVAPS   X0, X3 \
	MOVLHPS  X2, X3 \
	MOVHLPS  X0, X2

// BROADCASTX loads x[0..3] from AX and broadcasts x_i into every lane of
// X(4+i).
#define BROADCASTX \
	MOVUPS (AX), X7 \
	PSHUFD $0x00, X7, X4 \
	PSHUFD $0x55, X7, X5 \
	PSHUFD $0xaa, X7, X6 \
	PSHUFD $0xff, X7, X7

// func l2sqRow4x4(x, cents, row *float32, n int)
//
// row[c] = ((t0+t1)+t2)+t3 with t_i = (x_i - c_i)², for n points, n a
// positive multiple of 4: lane j of every register belongs to point j.
TEXT ·l2sqRow4x4(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ cents+8(FP), R8
	MOVQ row+16(FP), DI
	MOVQ n+24(FP), CX
	BROADCASTX

l2loop:
	MOVUPS (R8), X0
	MOVUPS 16(R8), X1
	MOVUPS 32(R8), X2
	MOVUPS 48(R8), X3
	TRANSPOSE4
	MOVAPS X4, X10
	SUBPS  X1, X10   // x_0 - c_0
	MULPS  X10, X10  // t0
	MOVAPS X5, X11
	SUBPS  X9, X11
	MULPS  X11, X11  // t1
	ADDPS  X11, X10  // t0 + t1
	MOVAPS X6, X11
	SUBPS  X3, X11
	MULPS  X11, X11  // t2
	ADDPS  X11, X10
	MOVAPS X7, X11
	SUBPS  X2, X11
	MULPS  X11, X11  // t3
	ADDPS  X11, X10
	MOVUPS X10, (DI)
	ADDQ   $64, R8
	ADDQ   $16, DI
	SUBQ   $4, CX
	JNZ    l2loop
	RET

// func dotRow4x4(x, cents, row *float32, n int)
//
// row[c] = (((+0 + t0) + t1) + t2) + t3 with t_i = x_i · c_i: the Go loop
// starts its sum at +0, which turns a −0 first product into +0.
TEXT ·dotRow4x4(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), AX
	MOVQ cents+8(FP), R8
	MOVQ row+16(FP), DI
	MOVQ n+24(FP), CX
	BROADCASTX

dotloop:
	MOVUPS (R8), X0
	MOVUPS 16(R8), X1
	MOVUPS 32(R8), X2
	MOVUPS 48(R8), X3
	TRANSPOSE4
	XORPS  X10, X10
	MULPS  X4, X1   // t0 = x_0 · c_0
	ADDPS  X1, X10  // +0 + t0
	MULPS  X5, X9
	ADDPS  X9, X10
	MULPS  X6, X3
	ADDPS  X3, X10
	MULPS  X7, X2
	ADDPS  X2, X10
	MOVUPS X10, (DI)
	ADDQ   $64, R8
	ADDQ   $16, DI
	SUBQ   $4, CX
	JNZ    dotloop
	RET
