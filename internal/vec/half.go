package vec

import (
	"math"
	"sync"
	"sync/atomic"
)

// Half-precision rows: ExS's centroid filter keeps one IEEE 754 binary16
// row per relation, half the bytes of float32, and scores a float32 query
// against it with DotHalf. Unlike Dot and DotBatch, DotHalf makes no claim
// to equal any other kernel's bits: its callers bound its error (γ_dim of
// the float32 dot, whatever the accumulation order and with or without
// fused multiply-adds) instead of reproducing it. What it does promise is
// that one (query, row) pair gets the same bits wherever it sits in a call,
// alone or beside other queries and rows, so a batch of queries scores
// each exactly as a block of one would.

// MaxHalf is the largest finite binary16 value.
const MaxHalf = 65504

// ToHalf rounds x to the nearest binary16 value, ties to even, and returns
// its bits: |x| ≥ 65520 gives ±Inf and a NaN a quiet NaN. The rounding is
// the one a float64 → binary16 conversion makes in a single step.
func ToHalf(x float64) uint16 {
	b := math.Float64bits(x)
	if a := b &^ (1 << 63); a-0x3f10_0000_0000_0000 < 0x40f0_0000_0000_0000-0x3f10_0000_0000_0000 {
		// A normal binary16 magnitude, 2⁻¹⁴ ≤ |x| < 2¹⁶: rebias the
		// exponent from 1023 to 15 and round away the low 42 fraction bits,
		// to nearest, ties to even (a carry moves into the exponent, up to
		// Inf past 65504).
		return uint16(b>>48)&0x8000 | uint16((a-(1023-15)<<52+(1<<41-1)+a>>42&1)>>42)
	}
	return toHalfSlow(b)
}

// toHalfSlow is ToHalf for the rest, float64 bits b: zero, subnormal
// results, overflow, Inf and NaN.
func toHalfSlow(b uint64) uint16 {
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52&0x7ff) - 1023
	switch {
	case exp == 1024: // Inf or NaN
		if b&(1<<52-1) != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp < -25: // below half the least subnormal, 2⁻²⁵: zero
		return sign
	case exp > 15:
		return sign | 0x7c00
	}
	// The 53-bit significand m·2^(exp−52) rounds to a multiple of 2^(e−10),
	// e = max(exp, −14): drop the low shift bits, to nearest, ties to even.
	// A subnormal (e = −14 > exp) comes out below 2¹⁰; a carry to 2¹¹ moves
	// into the exponent field, up to Inf past 65504.
	m := b&(1<<52-1) | 1<<52
	e := max(exp, -14)
	shift := uint(42 + e - exp)
	q := m >> shift
	rem, half := m&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && q&1 == 1 {
		q++
	}
	return sign | (uint16(e+14)<<10 + uint16(q))
}

// HalfToFloat32 returns the binary16 value with bits h as a float32, which
// holds every one exactly: subnormals become normal floats and a NaN keeps
// its payload with the quiet bit set, as the F16C conversion does. The
// fields move into place and the exponent bias grows by 112; an all-ones
// exponent grows by 112 more (Inf, NaN), and a zero one is read as
// 2⁻¹⁴·(1 + man/1024), from which 2⁻¹⁴ is subtracted exactly (zero and the
// subnormals, man·2⁻²⁴).
func HalfToFloat32(h uint16) float32 {
	o := uint32(h&0x7fff) << 13
	switch exp := o & 0x0f800000; exp {
	case 0x0f800000:
		o += 224 << 23
		if o&0x7fffff != 0 {
			o |= 0x400000
		}
	case 0:
		o = math.Float32bits(math.Float32frombits(o+113<<23) - 0x1p-14)
	default:
		o += 112 << 23
	}
	return math.Float32frombits(o | uint32(h&0x8000)<<16)
}

// halfGo makes DotHalf run its pure-Go body even where the assembly body
// is available (SetHalfGoBody).
var halfGo atomic.Bool

// SetHalfGoBody makes DotHalf run its pure-Go body when goBody is true and
// the body detected at start-up otherwise. Tests use it to run both bodies
// on a machine that has the assembly; it changes no result a caller may
// rely on, since each body keeps DotHalf's per-pair promise on its own.
func SetHalfGoBody(goBody bool) { halfGo.Store(goBody) }

// HalfAsm reports whether DotHalf runs the assembly body.
func HalfAsm() bool { return halfAsm && !halfGo.Load() }

// DotHalf sets out[i·stride + r] to qs[i] · h_r for every query i and every
// row h_r = rows[r·dim:(r+1)·dim] of binary16 bits, dim = len(qs[i]): each
// row is converted to float32 exactly and dotted in float32. It panics
// unless every query has length dim, len(rows) is a multiple of dim, stride
// is at least the row count and out reaches the last query's last row.
//
// On amd64 CPUs with AVX2, FMA and F16C, the 16-float blocks run in
// assembly (half_amd64.s): a 4-query × 1-row body for each group of four
// queries and a 1-query × 2-row body for the rest, both with the same two
// accumulators per pair, and Go adds the dim mod 16 tail. Elsewhere, or
// after SetHalfGoBody(true), a pure-Go body scores each pair on its own.
func DotHalf(qs [][]float32, rows []uint16, out []float32, stride int) {
	if len(qs) == 0 {
		return
	}
	dim := len(qs[0])
	if dim == 0 {
		panic("vec: DotHalf with empty queries")
	}
	n := len(rows) / dim
	assertSameLen(len(rows), n*dim)
	for _, q := range qs {
		assertSameLen(len(q), dim)
	}
	if n == 0 {
		return
	}
	if stride < n || len(out) < (len(qs)-1)*stride+n {
		panic("vec: DotHalf output too short")
	}
	if !HalfAsm() {
		tab := halfTable()
		for i, q := range qs {
			o := out[i*stride : i*stride+n]
			for r := range o {
				o[r] = dotHalfGo(tab, q, rows[r*dim:(r+1)*dim])
			}
		}
		return
	}
	blocks := dim / 16
	i := 0
	for ; i+4 <= len(qs); i += 4 {
		dotHalf4x1(&qs[i][0], &qs[i+1][0], &qs[i+2][0], &qs[i+3][0], &rows[0], n, dim, blocks, &out[i*stride], stride)
	}
	for ; i < len(qs); i++ {
		dotHalf1x2(&qs[i][0], &rows[0], n, dim, blocks, &out[i*stride])
	}
	if tail := blocks * 16; tail < dim {
		for i, q := range qs {
			o := out[i*stride : i*stride+n]
			for r := range o {
				h := rows[r*dim+tail : (r+1)*dim]
				s := o[r]
				for j, x := range q[tail:] {
					s += x * HalfToFloat32(h[j])
				}
				o[r] = s
			}
		}
	}
}

// halfTable is HalfToFloat32 of every bit pattern, 256 KB built on the Go
// body's first call: a load per element is twice as fast as converting the
// fields, and a CPU that runs the assembly never builds it.
var halfTable = sync.OnceValue(func() *[1 << 16]float32 {
	t := new([1 << 16]float32)
	for h := range t {
		t[h] = HalfToFloat32(uint16(h))
	}
	return t
})

// dotHalfGo is the pure-Go body of one pair: four accumulator chains, like
// Dot's, over the row converted element by element through tab.
func dotHalfGo(tab *[1 << 16]float32, q []float32, h []uint16) float32 {
	h = h[:len(q)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(q); i += 4 {
		s0 += q[i] * tab[h[i]]
		s1 += q[i+1] * tab[h[i+1]]
		s2 += q[i+2] * tab[h[i+2]]
		s3 += q[i+3] * tab[h[i+3]]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(q); i++ {
		s += q[i] * tab[h[i]]
	}
	return s
}
