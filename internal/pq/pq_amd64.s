//go:build amd64 && !purego

// SSE2 bodies for PQ's 4-dim subspaces and K = 256 tables. See
// pq_amd64.go for the bit-identity argument: every lane holds the four
// dims of one subspace or one slot's running sum, and every sum is formed
// in the order the Go body forms it, so each SUBPS/MULPS/ADDSS rounds
// exactly like the scalar operation it replaces.

#include "textflag.h"

// func codeDist4x256(cents *float32, a, b *byte, m, stride int) float32
//
// CodeDist at subDim 4, K = 256: subspace s reads the two centroids named by
// a[s·stride] and b[s·stride] (16 bytes each, 4 KiB of codebook per
// subspace), squares their lane-wise difference, adds the four squares as
// ((p0+p1)+p2)+p3 and that into the running total, subspace by subspace.
TEXT ·codeDist4x256(SB), NOSPLIT, $0-44
	MOVQ  cents+0(FP), R8
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DI
	MOVQ  m+24(FP), CX
	MOVQ  stride+32(FP), DX
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
	ADDQ    DX, SI
	ADDQ    DX, DI
	DECQ    CX
	JNZ     cdloop

	MOVSS X7, ret+40(FP)
	RET

// func lookup256(v *float32, code *byte, m, stride int) float32
//
// Table.Lookup at K = 256: one load-and-add per subspace, in order, from a
// running total that starts at +0 as the Go loop's does.
TEXT ·lookup256(SB), NOSPLIT, $0-36
	MOVQ  v+0(FP), R8
	MOVQ  code+8(FP), SI
	MOVQ  m+16(FP), CX
	MOVQ  stride+24(FP), DX
	XORPS X0, X0

lkloop:
	MOVBQZX (SI), AX
	ADDSS   (R8)(AX*4), X0 // sum += v[s·256 + code[s·stride]]
	ADDQ    $1024, R8
	ADDQ    DX, SI
	DECQ    CX
	JNZ     lkloop

	MOVSS X0, ret+32(FP)
	RET

// ADDSUB adds subspace s's entries for a block's eight slots into X0–X7:
// AX is loaded with the block's eight code bytes of s at off(SI), and
// slot j's byte indexes row s of the table, at row(R11).
#define ADDSUB(off, row) \
	MOVQ    off(SI), AX; \
	MOVBLZX AL, BX; \
	MOVBLZX AH, DX; \
	ADDSS   row(R11)(BX*4), X0; \
	ADDSS   row(R11)(DX*4), X1; \
	SHRQ    $16, AX; \
	MOVBLZX AL, BX; \
	MOVBLZX AH, DX; \
	ADDSS   row(R11)(BX*4), X2; \
	ADDSS   row(R11)(DX*4), X3; \
	SHRQ    $16, AX; \
	MOVBLZX AL, BX; \
	MOVBLZX AH, DX; \
	ADDSS   row(R11)(BX*4), X4; \
	ADDSS   row(R11)(DX*4), X5; \
	SHRQ    $16, AX; \
	MOVBLZX AL, BX; \
	MOVBLZX AH, DX; \
	ADDSS   row(R11)(BX*4), X6; \
	ADDSS   row(R11)(DX*4), X7

// func lookupBlocks256(v *float32, blocks *byte, m, nblocks int, out *float32)
//
// Table.lookupBlocks at K = 256: X0–X7 are the eight slots' running sums of
// a block, each from +0. Per subspace one 8-byte load brings the block's
// eight code bytes, and each byte's table entry is added into its own
// slot's sum; the subspaces go in order (an odd M's first alone, then two
// per pass), so every sum is Lookup's sequence of roundings, and the eight
// independent chains overlap.
TEXT ·lookupBlocks256(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), R8
	MOVQ blocks+8(FP), SI
	MOVQ m+16(FP), R9
	MOVQ nblocks+24(FP), R10
	MOVQ out+32(FP), DI

blkloop:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  R8, R11 // row s of the table
	MOVQ  R9, CX
	SHRQ  $1, CX  // pairs of subspaces left
	TESTQ $1, R9
	JZ    pairs
	ADDSUB(0, 0)
	ADDQ  $8, SI
	ADDQ  $1024, R11
	TESTQ CX, CX
	JZ    store

pairs:
	ADDSUB(0, 0)
	ADDSUB(8, 1024)
	ADDQ $16, SI
	ADDQ $2048, R11
	DECQ CX
	JNZ  pairs

store:
	MOVSS X0, 0(DI)
	MOVSS X1, 4(DI)
	MOVSS X2, 8(DI)
	MOVSS X3, 12(DI)
	MOVSS X4, 16(DI)
	MOVSS X5, 20(DI)
	MOVSS X6, 24(DI)
	MOVSS X7, 28(DI)
	ADDQ  $32, DI
	DECQ  R10
	JNZ   blkloop
	RET
