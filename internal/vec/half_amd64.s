//go:build amd64 && !purego

// AVX2 + FMA + F16C bodies of DotHalf (half.go), chosen at start-up by
// detectHalfAsm (half_amd64.go). VCVTPH2PS converts eight binary16 row
// values straight from memory to float32, exactly; VFMADD231PS folds them
// into the accumulators with one rounding per lane.
//
// Every (query, row) pair gets the same recipe in both bodies: two YMM
// accumulators, the first fed dims [16b, 16b+8) and the second dims
// [16b+8, 16b+16) of each block b, in block order, then REDUCE. So a
// query's score for a row has the same bits whether four queries or one
// shared the pass.

#include "textflag.h"

// REDUCE adds accumulator yb into ya and folds ya's eight lanes into one
// float32 at dst: the two 128-bit halves lane by lane (xa is ya's low
// half), then lanes 2,3 onto 0,1, then lane 1 onto lane 0.
#define REDUCE(ya, yb, xa, dst) \
	VADDPS       yb, ya, ya \
	VEXTRACTF128 $1, ya, X10 \
	VADDPS       X10, xa, xa \
	VMOVHLPS     xa, xa, X10 \
	VADDPS       X10, xa, xa \
	VMOVSHDUP    xa, X10 \
	VADDSS       X10, xa, xa \
	VMOVSS       xa, dst

// func dotHalf4x1(q0, q1, q2, q3 *float32, rows *uint16, nrows, dim, blocks int, out *float32, ostride int)
//
// Four queries against one row at a time: each converted row block feeds
// eight FMA chains, Y0..Y7 (two per query). Query i's score for row r goes
// to out[i*ostride + r].
TEXT ·dotHalf4x1(SB), NOSPLIT, $0-80
	MOVQ q0+0(FP), R8
	MOVQ q1+8(FP), R9
	MOVQ q2+16(FP), R10
	MOVQ q3+24(FP), R11
	MOVQ rows+32(FP), SI
	MOVQ nrows+40(FP), R13
	MOVQ dim+48(FP), R14
	SHLQ $1, R14           // row stride in bytes
	MOVQ blocks+56(FP), R15
	MOVQ out+64(FP), DI
	MOVQ ostride+72(FP), DX
	SHLQ $2, DX            // output stride in bytes

row4:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, R12         // row cursor
	XORQ   BX, BX          // query byte offset
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     reduce4

loop4:
	VCVTPH2PS   (R12), Y8
	VCVTPH2PS   16(R12), Y9
	VFMADD231PS (R8)(BX*1), Y8, Y0
	VFMADD231PS 32(R8)(BX*1), Y9, Y1
	VFMADD231PS (R9)(BX*1), Y8, Y2
	VFMADD231PS 32(R9)(BX*1), Y9, Y3
	VFMADD231PS (R10)(BX*1), Y8, Y4
	VFMADD231PS 32(R10)(BX*1), Y9, Y5
	VFMADD231PS (R11)(BX*1), Y8, Y6
	VFMADD231PS 32(R11)(BX*1), Y9, Y7
	ADDQ        $32, R12
	ADDQ        $64, BX
	DECQ        CX
	JNZ         loop4

reduce4:
	MOVQ DI, AX
	REDUCE(Y0, Y1, X0, (AX))
	ADDQ DX, AX
	REDUCE(Y2, Y3, X2, (AX))
	ADDQ DX, AX
	REDUCE(Y4, Y5, X4, (AX))
	ADDQ DX, AX
	REDUCE(Y6, Y7, X6, (AX))
	ADDQ $4, DI
	ADDQ R14, SI
	DECQ R13
	JNZ  row4
	VZEROUPPER
	RET

// func dotHalf1x2(q *float32, rows *uint16, nrows, dim, blocks int, out *float32)
//
// One query against two rows at a time: each query block is loaded once
// for both, four FMA chains in flight (Y0, Y1 for the first row, Y2, Y3 for
// the second). An odd last row is paired with itself and stored once.
TEXT ·dotHalf1x2(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), R8
	MOVQ rows+8(FP), SI
	MOVQ nrows+16(FP), R13
	MOVQ dim+24(FP), R14
	SHLQ $1, R14           // row stride in bytes
	MOVQ blocks+32(FP), R15
	MOVQ out+40(FP), DI

pair:
	MOVQ SI, R10
	LEAQ (SI)(R14*1), R11
	CMPQ R13, $1
	JNE  two
	MOVQ SI, R11

two:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   BX, BX          // query byte offset
	MOVQ   R15, CX
	TESTQ  CX, CX
	JZ     reduce2

loop2:
	VMOVUPS     (R8)(BX*1), Y4
	VMOVUPS     32(R8)(BX*1), Y5
	VCVTPH2PS   (R10), Y6
	VCVTPH2PS   16(R10), Y7
	VCVTPH2PS   (R11), Y8
	VCVTPH2PS   16(R11), Y9
	VFMADD231PS Y6, Y4, Y0
	VFMADD231PS Y7, Y5, Y1
	VFMADD231PS Y8, Y4, Y2
	VFMADD231PS Y9, Y5, Y3
	ADDQ        $32, R10
	ADDQ        $32, R11
	ADDQ        $64, BX
	DECQ        CX
	JNZ         loop2

reduce2:
	REDUCE(Y0, Y1, X0, (DI))
	CMPQ R13, $1
	JEQ  done2
	REDUCE(Y2, Y3, X2, 4(DI))
	ADDQ $8, DI
	LEAQ (SI)(R14*2), SI
	SUBQ $2, R13
	JNZ  pair

done2:
	VZEROUPPER
	RET

// func cvtHalf8(h *uint16, out *[8]float32)
TEXT ·cvtHalf8(SB), NOSPLIT, $0-16
	MOVQ      h+0(FP), AX
	MOVQ      out+8(FP), BX
	VCVTPH2PS (AX), Y0
	VMOVUPS   Y0, (BX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
