//go:build amd64 && !purego

// SSE2 bodies for PQ's 4-dim subspaces. See pq_amd64.go for the
// bit-identity argument: every lane holds the four dims of one subspace,
// and every sum is formed in the order the Go body forms it, so each
// SUBPS/MULPS/ADDSS rounds exactly like the scalar operation it replaces.

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
