//go:build amd64 && !purego

// SSE2 bodies for PQ's 4-dim subspaces. See pq_amd64.go for the
// bit-identity argument: every lane holds either the four dims of one
// subspace or one dim of four centroids, and every sum is formed in the
// order the Go body forms it, so each MULPS/SUBPS/ADDPS/ADDSS rounds exactly
// like the scalar operation it replaces.

#include "textflag.h"

// func codeDist4x256(cents *float32, a, b *byte, m int) float32
//
// CodeDist at subDim 4, K = 256: subspace s reads the two centroids named by
// a[s] and b[s] (16 bytes each, 4 KiB of codebook per subspace), squares
// their lane-wise difference, adds the four squares as ((p0+p1)+p2)+p3 and
// that into the running total, subspace by subspace.
TEXT ·codeDist4x256(SB), NOSPLIT, $0-36
	MOVQ  cents+0(FP), R8
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DI
	MOVQ  m+24(FP), CX
	XORPS X7, X7 // running total

cdloop:
	MOVBQZX (SI), AX
	MOVBQZX (DI), BX
	SHLQ    $4, AX
	SHLQ    $4, BX
	MOVUPS  (R8)(AX*1), X0 // x = centroid a[s]
	MOVUPS  (R8)(BX*1), X1 // y = centroid b[s]
	SUBPS   X1, X0         // d_i = x_i - y_i
	MULPS   X0, X0         // p_i = d_i * d_i
	PSHUFD  $0x55, X0, X1  // p1
	MOVHLPS X0, X2         // p2 in lane 0
	PSHUFD  $0xff, X0, X3  // p3
	ADDSS   X1, X0         // p0 + p1
	ADDSS   X2, X0         // + p2
	ADDSS   X3, X0         // + p3
	ADDSS   X0, X7         // d += subspace s
	ADDQ    $4096, R8
	INCQ    SI
	INCQ    DI
	DECQ    CX
	JNZ     cdloop

	MOVSS X7, ret+32(FP)
	RET

// func lookup256(v *float32, code *byte, m int) float32
//
// Table.Lookup at K = 256: one load-and-add per subspace, in order, from a
// running total that starts at +0 as the Go loop's does.
TEXT ·lookup256(SB), NOSPLIT, $0-28
	MOVQ  v+0(FP), R8
	MOVQ  code+8(FP), SI
	MOVQ  m+16(FP), CX
	XORPS X0, X0

lkloop:
	MOVBQZX (SI), AX
	ADDSS   (R8)(AX*4), X0 // sum += v[s·256 + code[s]]
	ADDQ    $1024, R8
	INCQ    SI
	DECQ    CX
	JNZ     lkloop

	MOVSS X0, ret+24(FP)
	RET

// The row kernels score four centroids c0..c3 (64 bytes) per iteration.
// TRANSPOSE4 turns the four centroids in X0..X3 into dim-major columns:
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
// row[c] = ((t0+t1)+t2)+t3 with t_i = (x_i - c_i)², for n centroids, n a
// positive multiple of 4: lane j of every register belongs to centroid j.
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
