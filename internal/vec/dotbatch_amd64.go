//go:build amd64 && !purego

package vec

// The amd64 kernels, single-pair and 4-query, run their 8-wide bodies in
// SSE2 assembly (dotbatch_amd64.s). Bit-identity with the scalar kernels is
// preserved by construction: dotGo keeps four independent accumulator chains
// where chain j receives a[i+j]*b[i+j] + a[i+4+j]*b[i+4+j] per 8-element
// block, and the assembly maps chain j onto SSE lane j of one XMM
// accumulator — MULPS and ADDPS round each lane exactly like the scalar
// MULSS/ADDSS sequence, in the same order. The Go wrappers combine the four
// lanes as (s0+s1)+(s2+s3) and run the scalar remainder loop, completing the
// exact Dot/L2Sq recipe.
//
// One accumulator register per pair is as wide as this goes: a second one
// would split chain j in two and add the halves at the end, a different
// rounding sequence. The single-pair loop is therefore bound by ADDPS
// latency (8 floats per ~4 cycles) where the scalar loop is bound by issue
// width; the 4-query block hides that latency behind four pairs.
//
// SSE2 is in the amd64 baseline, so these kernels need no runtime feature
// dispatch; the purego build tag selects the Go bodies instead. DotHalf's
// AVX2 + FMA + F16C body is the one kernel chosen at start-up, from CPUID
// (half_amd64.go).

const kernelAsm = true

//go:noescape
func dot1x8(a, b *float32, iters int, out *[4]float32)

//go:noescape
func l2sq1x8(a, b *float32, iters int, out *[4]float32)

// dotAsm is Dot through the SSE2 body. Caller guarantees len(a) == len(b)
// and len(a) >= 8.
func dotAsm(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var acc [4]float32
	dot1x8(&a[0], &b[0], n/8, &acc)
	s := (acc[0] + acc[1]) + (acc[2] + acc[3])
	for i := n &^ 7; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// l2sqAsm is dotAsm's squared-distance twin.
func l2sqAsm(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var acc [4]float32
	l2sq1x8(&a[0], &b[0], n/8, &acc)
	s := (acc[0] + acc[1]) + (acc[2] + acc[3])
	for i := n &^ 7; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

//go:noescape
func addScaled8(a *float32, s float32, b *float32, n int)

// addScaledAsm is AddScaled through the SSE2 body. Caller guarantees
// len(a) == len(b), a positive multiple of 8.
func addScaledAsm(a []float32, s float32, b []float32) {
	addScaled8(&a[0], s, &b[:len(a)][0], len(a))
}

//go:noescape
func dot4x8(q0, q1, q2, q3, v *float32, iters int, out *[16]float32)

//go:noescape
func l2sq4x8(q0, q1, q2, q3, v *float32, iters int, out *[16]float32)

// dot4Asm computes four dot products against a shared value vector via the
// SSE2 body. Caller guarantees len(v) >= 8 and all lengths equal.
func dot4Asm(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	n := len(v)
	iters := n / 8
	var acc [16]float32
	dot4x8(&q0[0], &q1[0], &q2[0], &q3[0], &v[0], iters, &acc)
	o0 = (acc[0] + acc[1]) + (acc[2] + acc[3])
	o1 = (acc[4] + acc[5]) + (acc[6] + acc[7])
	o2 = (acc[8] + acc[9]) + (acc[10] + acc[11])
	o3 = (acc[12] + acc[13]) + (acc[14] + acc[15])
	for i := iters * 8; i < n; i++ {
		x := v[i]
		o0 += q0[i] * x
		o1 += q1[i] * x
		o2 += q2[i] * x
		o3 += q3[i] * x
	}
	return o0, o1, o2, o3
}

// l2sq4Asm is dot4Asm's squared-distance twin.
func l2sq4Asm(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	n := len(v)
	iters := n / 8
	var acc [16]float32
	l2sq4x8(&q0[0], &q1[0], &q2[0], &q3[0], &v[0], iters, &acc)
	o0 = (acc[0] + acc[1]) + (acc[2] + acc[3])
	o1 = (acc[4] + acc[5]) + (acc[6] + acc[7])
	o2 = (acc[8] + acc[9]) + (acc[10] + acc[11])
	o3 = (acc[12] + acc[13]) + (acc[14] + acc[15])
	for i := iters * 8; i < n; i++ {
		x := v[i]
		e0 := q0[i] - x
		o0 += e0 * e0
		e1 := q1[i] - x
		o1 += e1 * e1
		e2 := q2[i] - x
		o2 += e2 * e2
		e3 := q3[i] - x
		o3 += e3 * e3
	}
	return o0, o1, o2, o3
}

//go:noescape
func l2sqRow4x4(x, cents, row *float32, n int)

//go:noescape
func dotRow4x4(x, cents, row *float32, n int)

// l2sqRowAsm is L2SqRow at 4 dims for len(row) a positive multiple of 4.
func l2sqRowAsm(x, cents, row []float32) {
	_, _ = x[3], cents[len(row)*4-1]
	l2sqRow4x4(&x[0], &cents[0], &row[0], len(row))
}

// dotRowAsm is DotRow at 4 dims for len(row) a positive multiple of 4.
func dotRowAsm(x, cents, row []float32) {
	_, _ = x[3], cents[len(row)*4-1]
	dotRow4x4(&x[0], &cents[0], &row[0], len(row))
}
