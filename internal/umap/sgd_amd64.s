//go:build amd64 && !purego

// SSE2 bodies for the SGD's per-edge steps at 16 layout dimensions. See
// sgd_amd64.go for the bit-identity argument: lane j of a register holds
// coordinate 4q+j of one row, so each SUBPS/MULPS/ADDPS rounds exactly like
// the Go loop's scalar operation on that coordinate.

#include "textflag.h"

// BROADCAST4 fills every lane of X9 with +4 and of X10 with −4, clip's
// bounds.
#define BROADCAST4 \
	MOVL   $0x40800000, AX \
	MOVL   AX, X9 \
	SHUFPS $0x00, X9, X9 \
	MOVL   $0xc0800000, AX \
	MOVL   AX, X10 \
	SHUFPS $0x00, X10, X10

// func l2sq16(a, b *float32) float32
//
// Lane j sums (d_j²+d_{j+4}²) + (d_{j+8}²+d_{j+12}²), l2sqGo's chain s_j
// after two 8-wide blocks, and the lanes combine as (s0+s1)+(s2+s3).
TEXT ·l2sq16(SB), NOSPLIT, $0-20
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS (DI), X4
	MOVUPS 16(DI), X5
	MOVUPS 32(DI), X6
	MOVUPS 48(DI), X7
	SUBPS  X4, X0
	SUBPS  X5, X1
	SUBPS  X6, X2
	SUBPS  X7, X3
	MULPS  X0, X0
	MULPS  X1, X1
	MULPS  X2, X2
	MULPS  X3, X3
	ADDPS  X1, X0         // d_j² + d_{j+4}²
	ADDPS  X3, X2         // d_{j+8}² + d_{j+12}²
	ADDPS  X2, X0         // s_j
	PSHUFD $0xb1, X0, X1  // s1 s0 s3 s2
	ADDPS  X1, X0         // lane 0: s0+s1, lane 2: s2+s3
	MOVHLPS X0, X1
	ADDSS  X1, X0         // (s0+s1) + (s2+s3)
	MOVSS  X0, ret+16(FP)
	RET

// Both steps clip t = g·(x−·) in X2, using X3 as a temporary. MINPS returns
// dst < src ? dst : src, so with +4 as the destination it computes
// 4 < t ? 4 : t — clip's x > 4 test, which passes a NaN and a −0 through —
// and MAXPS with −4 as the destination computes −4 > t ? −4 : t.

// ATTRACT4 is attract's loop on coordinates off..off+3:
// gd = clip(g·(x−y)), x += α·gd, y −= α·gd.
#define ATTRACT4(off) \
	MOVUPS off(SI), X0 \
	MOVUPS off(DI), X1 \
	MOVAPS X0, X2 \
	SUBPS  X1, X2 \
	MULPS  X8, X2 \
	MOVAPS X9, X3 \
	MINPS  X2, X3 \
	MOVAPS X10, X2 \
	MAXPS  X3, X2 \
	MULPS  X11, X2 \
	ADDPS  X2, X0 \
	SUBPS  X2, X1 \
	MOVUPS X0, off(SI) \
	MOVUPS X1, off(DI)

// func attract16(x, y *float32, coef, alpha float32)
TEXT ·attract16(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   y+8(FP), DI
	MOVSS  coef+16(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  alpha+20(FP), X11
	SHUFPS $0x00, X11, X11
	BROADCAST4
	ATTRACT4(0)
	ATTRACT4(16)
	ATTRACT4(32)
	ATTRACT4(48)
	RET

// REPEL4 is repel's loop on coordinates off..off+3:
// x += α·clip(g·(x−z)).
#define REPEL4(off) \
	MOVUPS off(SI), X0 \
	MOVUPS off(DI), X1 \
	MOVAPS X0, X2 \
	SUBPS  X1, X2 \
	MULPS  X8, X2 \
	MOVAPS X9, X3 \
	MINPS  X2, X3 \
	MOVAPS X10, X2 \
	MAXPS  X3, X2 \
	MULPS  X11, X2 \
	ADDPS  X2, X0 \
	MOVUPS X0, off(SI)

// func repel16(x, z *float32, coef, alpha float32)
TEXT ·repel16(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), SI
	MOVQ   z+8(FP), DI
	MOVSS  coef+16(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  alpha+20(FP), X11
	SHUFPS $0x00, X11, X11
	BROADCAST4
	REPEL4(0)
	REPEL4(16)
	REPEL4(32)
	REPEL4(48)
	RET
