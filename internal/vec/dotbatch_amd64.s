//go:build amd64 && !purego

// SSE2 bodies for the vector kernels. See dotbatch_amd64.go for the
// bit-identity argument: lanes 0..3 of each accumulator register are exactly
// the four scalar accumulator chains of Dot/L2Sq, so MULPS/ADDPS perform the
// same individually-rounded float32 operations the scalar kernels do.
//
// SSE2 is part of the amd64 baseline, so these need no CPUID dispatch
// (DotHalf's AVX2 body in half_amd64.s is the one that does).

#include "textflag.h"

// func dot1x8(a, b *float32, iters int, out *[4]float32)
//
// One pair, iters blocks of 8 floats: lane j of X0 receives
// a[i+j]*b[i+j] + a[i+4+j]*b[i+4+j] per block — dotGo's s_j chain. The four
// lanes are stored to out for the Go caller to combine and tail.
TEXT ·dot1x8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ iters+16(FP), CX
	MOVQ out+24(FP), DI
	XORPS X0, X0 // chains s0..s3
	TESTQ CX, CX
	JZ    dot1done

dot1loop:
	MOVUPS (R8), X1
	MOVUPS 16(R8), X2
	MOVUPS (R9), X3
	MOVUPS 16(R9), X4
	MULPS  X3, X1 // a[i+j]*b[i+j]
	MULPS  X4, X2 // a[i+4+j]*b[i+4+j]
	ADDPS  X2, X1 // lane-wise p1 + p2
	ADDPS  X1, X0 // s_j += (p1 + p2)
	ADDQ   $32, R8
	ADDQ   $32, R9
	DECQ   CX
	JNZ    dot1loop

dot1done:
	MOVUPS X0, (DI)
	RET

// func l2sq1x8(a, b *float32, iters int, out *[4]float32)
//
// The squared-distance twin: lane j accumulates d*d + d'*d' with
// d = a[i+j]-b[i+j], d' = a[i+4+j]-b[i+4+j], matching l2sqGo's chains.
TEXT ·l2sq1x8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ iters+16(FP), CX
	MOVQ out+24(FP), DI
	XORPS X0, X0
	TESTQ CX, CX
	JZ    l2sq1done

l2sq1loop:
	MOVUPS (R8), X1
	MOVUPS 16(R8), X2
	MOVUPS (R9), X3
	MOVUPS 16(R9), X4
	SUBPS  X3, X1 // d_j = a[i+j] - b[i+j]
	SUBPS  X4, X2
	MULPS  X1, X1 // d*d
	MULPS  X2, X2
	ADDPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $32, R8
	ADDQ   $32, R9
	DECQ   CX
	JNZ    l2sq1loop

l2sq1done:
	MOVUPS X0, (DI)
	RET

// func dot4x8(q0, q1, q2, q3, v *float32, iters int, out *[16]float32)
//
// Processes iters blocks of 8 floats: for each query, lane j of its
// accumulator register receives q[i+j]*v[i+j] + q[i+4+j]*v[i+4+j] per block
// — the scalar kernel's s_j chain. The 16 accumulator lanes (4 queries x 4
// chains) are stored to out for the Go caller to combine and tail.
TEXT ·dot4x8(SB), NOSPLIT, $0-56
	MOVQ q0+0(FP), R8
	MOVQ q1+8(FP), R9
	MOVQ q2+16(FP), R10
	MOVQ q3+24(FP), R11
	MOVQ v+32(FP), R12
	MOVQ iters+40(FP), CX
	MOVQ out+48(FP), DI
	XORPS X0, X0 // q0 chains s0..s3
	XORPS X1, X1 // q1 chains
	XORPS X2, X2 // q2 chains
	XORPS X3, X3 // q3 chains
	TESTQ CX, CX
	JZ    dotdone

dotloop:
	MOVUPS (R12), X4   // v[i..i+3]
	MOVUPS 16(R12), X5 // v[i+4..i+7]

	MOVUPS (R8), X6
	MOVUPS 16(R8), X7
	MULPS  X4, X6 // q0[i+j]*v[i+j]
	MULPS  X5, X7 // q0[i+4+j]*v[i+4+j]
	ADDPS  X7, X6 // lane-wise p1 + p2
	ADDPS  X6, X0 // s_j += (p1 + p2)

	MOVUPS (R9), X6
	MOVUPS 16(R9), X7
	MULPS  X4, X6
	MULPS  X5, X7
	ADDPS  X7, X6
	ADDPS  X6, X1

	MOVUPS (R10), X6
	MOVUPS 16(R10), X7
	MULPS  X4, X6
	MULPS  X5, X7
	ADDPS  X7, X6
	ADDPS  X6, X2

	MOVUPS (R11), X6
	MOVUPS 16(R11), X7
	MULPS  X4, X6
	MULPS  X5, X7
	ADDPS  X7, X6
	ADDPS  X6, X3

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX
	JNZ  dotloop

dotdone:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// func l2sq4x8(q0, q1, q2, q3, v *float32, iters int, out *[16]float32)
//
// The squared-distance twin: lane j accumulates d*d + d'*d' with
// d = q[i+j]-v[i+j], d' = q[i+4+j]-v[i+4+j], matching L2Sq's chains.
TEXT ·l2sq4x8(SB), NOSPLIT, $0-56
	MOVQ q0+0(FP), R8
	MOVQ q1+8(FP), R9
	MOVQ q2+16(FP), R10
	MOVQ q3+24(FP), R11
	MOVQ v+32(FP), R12
	MOVQ iters+40(FP), CX
	MOVQ out+48(FP), DI
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ CX, CX
	JZ    l2done

l2loop:
	MOVUPS (R12), X4
	MOVUPS 16(R12), X5

	MOVUPS (R8), X6
	MOVUPS 16(R8), X7
	SUBPS  X4, X6 // d_j = q[i+j] - v[i+j]
	SUBPS  X5, X7
	MULPS  X6, X6 // d*d
	MULPS  X7, X7
	ADDPS  X7, X6
	ADDPS  X6, X0

	MOVUPS (R9), X6
	MOVUPS 16(R9), X7
	SUBPS  X4, X6
	SUBPS  X5, X7
	MULPS  X6, X6
	MULPS  X7, X7
	ADDPS  X7, X6
	ADDPS  X6, X1

	MOVUPS (R10), X6
	MOVUPS 16(R10), X7
	SUBPS  X4, X6
	SUBPS  X5, X7
	MULPS  X6, X6
	MULPS  X7, X7
	ADDPS  X7, X6
	ADDPS  X6, X2

	MOVUPS (R11), X6
	MOVUPS 16(R11), X7
	SUBPS  X4, X6
	SUBPS  X5, X7
	MULPS  X6, X6
	MULPS  X7, X7
	ADDPS  X7, X6
	ADDPS  X6, X3

	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX
	JNZ  l2loop

l2done:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

// func addScaled8(a *float32, s float32, b *float32, n int)
//
// a[i] += s·b[i] for n floats, n a positive multiple of 8: MULPS rounds
// each product and ADDPS each sum, the two roundings addScaledGo makes.
TEXT ·addScaled8(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), DI
	MOVSS  s+8(FP), X0
	SHUFPS $0x00, X0, X0 // s in every lane
	MOVQ   b+16(FP), SI
	MOVQ   n+24(FP), CX

addscaledloop:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1 // s·b[i+j]
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X1, X3 // a[i+j] + s·b[i+j]
	ADDPS  X2, X4
	MOVUPS X3, (DI)
	MOVUPS X4, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $8, CX
	JNZ    addscaledloop
	RET
