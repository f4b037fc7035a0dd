package umap

import "math"

// pow32 returns x^p as a float32, within one float32 ulp of
// float32(math.Pow(x, p)). The SGD takes one power per gradient term, some
// fifteen million a fit, each on the dependency chain from one coordinate
// update to the next, and needs 24 bits of it; math.Pow delivers 53 through
// a loop of exact multiplications. Here x^p = 2^(p·log2 x) with both
// functions as short float64 polynomials, accurate to ~1e-10 relative, so
// the float32 rounding is all that separates the result from math.Pow's.
// The polynomials are written in Estrin's form and the range reductions
// without branches or integer conversions, because it is the latency of one
// call, not the throughput of many, that the SGD waits for.
//
// Anything outside the range the polynomials are built for — x zero,
// negative, infinite or NaN, a NaN or infinite p, a result that would leave
// float32's normal range — takes the exact path.
func pow32(x, p float32) float32 {
	if !(x > 0 && x <= math.MaxFloat32) {
		return float32(math.Pow(float64(x), float64(p)))
	}
	// x = m·2^e with m in [√½, √2): every positive float32, subnormals
	// included, is a normal float64. Adding 1−√½ in bit space carries into
	// the exponent exactly when the mantissa is √2 or more.
	const sqrtHalfBits = 0x3fe6a09e667f3bcd // math.Float64bits(√½)
	bits := math.Float64bits(float64(x)) + (1023<<52 - sqrtHalfBits)
	e := int(bits>>52) - 1023
	m := math.Float64frombits(bits&(1<<52-1) + sqrtHalfBits)

	// log2 m = (2/ln 2)·atanh(s), s = (m−1)/(m+1), |s| < 0.172: the odd
	// series through s¹¹ leaves 1e-11.
	const c = 2 / math.Ln2
	s := (m - 1) / (m + 1)
	s2 := s * s
	s4 := s2 * s2
	log2m := s * ((c + s2*(c/3)) + s4*((c/5+s2*(c/7))+s4*(c/9+s2*(c/11))))
	y := float64(p) * (float64(e) + log2m)
	if !(y > -126 && y < 127) {
		return float32(math.Pow(float64(x), float64(p)))
	}

	// 2^y = 2^k·2^f with k = round(y), |f| ≤ ½: adding 1.5·2^52 rounds y
	// into the low mantissa bits of t, so k comes off as a float by
	// subtraction and as an exponent field by a shift. 2^f is e^(f·ln 2)
	// through the ninth power, which leaves 7e-12.
	const (
		l1 = math.Ln2
		l2 = l1 * math.Ln2 / 2
		l3 = l2 * math.Ln2 / 3
		l4 = l3 * math.Ln2 / 4
		l5 = l4 * math.Ln2 / 5
		l6 = l5 * math.Ln2 / 6
		l7 = l6 * math.Ln2 / 7
		l8 = l7 * math.Ln2 / 8
		l9 = l8 * math.Ln2 / 9
	)
	t := y + 0x1.8p52
	f := y - (t - 0x1.8p52)
	f2 := f * f
	f4 := f2 * f2
	pf := ((1 + f*l1) + f2*(l2+f*l3)) + f4*(((l4+f*l5)+f2*(l6+f*l7))+f4*(l8+f*l9))
	return float32(pf * math.Float64frombits((math.Float64bits(t)+1023)<<52))
}
