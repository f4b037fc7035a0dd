// Package vec provides the dense float32 vector primitives shared by the
// embedding, indexing, clustering and reduction packages.
//
// All functions operate on plain []float32 slices. Unless stated otherwise
// they panic if the two operands have different lengths, because a length
// mismatch is always a programming error in this codebase, never a runtime
// condition to recover from.
package vec

import (
	"fmt"
	"math"
)

// pairKernelMinLen is where Dot and L2Sq hand over to the SSE2 bodies: two
// 8-wide iterations. Below it the call into assembly and the lane store
// cost as much as the loop they replace.
const pairKernelMinLen = 16

// Dot returns the inner product of a and b.
func Dot(a, b []float32) float32 {
	assertSameLen(len(a), len(b))
	if kernelAsm && len(a) >= pairKernelMinLen {
		return dotAsm(a, b)
	}
	return dotGo(a, b)
}

// dotGo defines Dot's value: every other kernel in the package — the SSE2
// single-pair body, the 4-query blocks — reproduces this sequence of float32
// roundings bit for bit. It is what runs off amd64 and on short vectors.
func dotGo(a, b []float32) float32 {
	// Unrolled by 8 with 4 independent accumulators. The Go compiler does
	// not auto-vectorize, and a single accumulator serializes the FP adds
	// on its ~4-cycle latency chain; four independent chains keep the FP
	// units busy. The b = b[:len(a)] hint removes most bounds checks.
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += a[i]*b[i] + a[i+4]*b[i+4]
		s1 += a[i+1]*b[i+1] + a[i+5]*b[i+5]
		s2 += a[i+2]*b[i+2] + a[i+6]*b[i+6]
		s3 += a[i+3]*b[i+3] + a[i+7]*b[i+7]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// L2Sq returns the squared Euclidean distance between a and b.
func L2Sq(a, b []float32) float32 {
	assertSameLen(len(a), len(b))
	if kernelAsm && len(a) >= pairKernelMinLen {
		return l2sqAsm(a, b)
	}
	return l2sqGo(a, b)
}

// l2sqGo is L2Sq's defining loop, as dotGo is Dot's: same 8-wide,
// 4-accumulator shape.
func l2sqGo(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d4 := a[i+4] - b[i+4]
		s0 += d0*d0 + d4*d4
		d1 := a[i+1] - b[i+1]
		d5 := a[i+5] - b[i+5]
		s1 += d1*d1 + d5*d5
		d2 := a[i+2] - b[i+2]
		d6 := a[i+6] - b[i+6]
		s2 += d2*d2 + d6*d6
		d3 := a[i+3] - b[i+3]
		d7 := a[i+7] - b[i+7]
		s3 += d3*d3 + d7*d7
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float32 {
	return float32(math.Sqrt(float64(L2Sq(a, b))))
}

// Cosine returns the cosine similarity of a and b in [-1, 1].
// If either vector has zero norm the similarity is defined as 0.
func Cosine(a, b []float32) float32 {
	assertSameLen(len(a), len(b))
	var dot, na, nb float32
	b = b[:len(a)]
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / float32(math.Sqrt(float64(na))*math.Sqrt(float64(nb)))
}

// CosineUnit returns the cosine similarity of two vectors that the caller
// guarantees are already L2-normalized; it is just the dot product.
func CosineUnit(a, b []float32) float32 { return Dot(a, b) }

// Normalize scales a in place to unit L2 norm and returns it.
// A zero vector is returned unchanged.
func Normalize(a []float32) []float32 {
	n := Norm(a)
	if n == 0 {
		return a
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
	return a
}

// Normalized returns a fresh unit-norm copy of a.
func Normalized(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return Normalize(out)
}

// Add accumulates b into a in place.
func Add(a, b []float32) {
	assertSameLen(len(a), len(b))
	for i := range a {
		a[i] += b[i]
	}
}

// AddScaled accumulates s*b into a in place: each a[i] + s·b[i] rounds
// the product and then the sum, never fused, so the SSE2 body (MULPS then
// ADDPS) and addScaledGo agree bit for bit.
func AddScaled(a []float32, s float32, b []float32) {
	assertSameLen(len(a), len(b))
	if n := len(a) &^ 7; kernelAsm && n >= pairKernelMinLen {
		addScaledAsm(a[:n], s, b[:n])
		a, b = a[n:], b[n:]
	}
	addScaledGo(a, s, b)
}

// addScaledGo defines AddScaled's value. The conversion rounds the product
// before the add, which also keeps a compiler targeting FMA from fusing
// the two.
func addScaledGo(a []float32, s float32, b []float32) {
	b = b[:len(a)]
	for i := range a {
		a[i] += float32(s * b[i])
	}
}

// Sub stores a-b into dst and returns dst. dst may alias a.
func Sub(dst, a, b []float32) []float32 {
	assertSameLen(len(a), len(b))
	assertSameLen(len(dst), len(a))
	for i := range a {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// Scale multiplies a by s in place.
func Scale(a []float32, s float32) {
	for i := range a {
		a[i] *= s
	}
}

// Mean returns the element-wise mean of the given vectors.
// It panics if vs is empty or the vectors disagree in length.
func Mean(vs [][]float32) []float32 {
	if len(vs) == 0 {
		panic("vec: Mean of zero vectors")
	}
	out := make([]float32, len(vs[0]))
	for _, v := range vs {
		Add(out, v)
	}
	Scale(out, 1/float32(len(vs)))
	return out
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}

// Zeros returns a zero vector of dimension d.
func Zeros(d int) []float32 { return make([]float32, d) }

func assertSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: dimension mismatch %d != %d", a, b))
	}
}
