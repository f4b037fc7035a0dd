package umap

import (
	"math"
	"math/rand"
	"testing"
)

// The Go bodies the 16-dim SGD steps must reproduce bit for bit: vec's
// l2sqGo and the two update loops of optimize, copied verbatim so that an
// edit to either side shows up here.

func goL2Sq(a, b []float32) float32 {
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

func goAttract(x, y []float32, g, alpha float32) {
	y = y[:len(x)]
	for d, xd := range x {
		gd := clip(g * (xd - y[d]))
		x[d] = xd + alpha*gd
		y[d] -= alpha * gd
	}
}

func goRepel(x, z []float32, g, alpha float32) {
	z = z[:len(x)]
	for d, xd := range x {
		x[d] = xd + alpha*clip(g*(xd-z[d]))
	}
}

// TestSGDKernelsBitIdentical holds layoutL2Sq, attract and repel at 16
// dimensions — the SSE2 bodies on amd64 — to the Go bodies above. Each case
// puts one special value in one coordinate of one row: a NaN, ±Inf, a
// subnormal, ±0, or a coordinate whose g·(x−y) lands exactly on or just
// past clip's ±4 bound. The coefficients are 0, 4 (the coincident cap), 1,
// a fraction, a negative and one large enough to overflow.
func TestSGDKernelsBitIdentical(t *testing.T) {
	const dim = 16
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	one := math.Nextafter32(1, 2)
	four := math.Nextafter32(4, 5)
	specials := []float32{
		nan, inf, -inf, 1e-40, -1e-40, math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1)), 0,
		1, -1, one, -one, 4, -4, four, -four, math.MaxFloat32,
	}
	coefs := []float32{0, 4, 1, 0.37, -2.5, 1e30}
	alphas := []float32{1, 0.37, 0.01}
	rng := rand.New(rand.NewSource(35))
	base := func() []float32 {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64()) * float32(math.Pow(4, float64(rng.Intn(7)-3)))
		}
		return v
	}
	same := func(a, b []float32) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	clone := func(v []float32) []float32 { return append([]float32(nil), v...) }
	check := func(x, y []float32) {
		t.Helper()
		if got, want := layoutL2Sq(x, y), goL2Sq(x, y); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("layoutL2Sq(%v, %v) = %v (%#x), Go body %v (%#x)", x, y, got, math.Float32bits(got), want, math.Float32bits(want))
		}
		for _, g := range coefs {
			for _, alpha := range alphas {
				kx, ky, gx, gy := clone(x), clone(y), clone(x), clone(y)
				attract(kx, ky, g, alpha)
				goAttract(gx, gy, g, alpha)
				if !same(kx, gx) || !same(ky, gy) {
					t.Fatalf("attract(%v, %v, g=%v, α=%v) = %v, %v; Go body %v, %v", x, y, g, alpha, kx, ky, gx, gy)
				}
				kx, gx = clone(x), clone(x)
				repel(kx, y, g, alpha)
				goRepel(gx, y, g, alpha)
				if !same(kx, gx) {
					t.Fatalf("repel(%v, %v, g=%v, α=%v) = %v; Go body %v", x, y, g, alpha, kx, gx)
				}
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		x, y := base(), base()
		check(x, y)
		for c := 0; c < dim; c++ {
			for _, v := range specials {
				// v in x[c]; v in y[c]; and v as the difference itself,
				// x[c] − 0, so that g·v sits on clip's bound exactly.
				sx, sy := clone(x), clone(y)
				sx[c] = v
				check(sx, y)
				sy[c] = v
				check(x, sy)
				sy[c] = 0
				check(sx, sy)
			}
		}
	}
}

// The three SGD steps at 16 dimensions, each kernel beside its Go body, over
// 1,024 rows in the flat layout optimize uses and a fixed sequence of row
// pairs. The updates run at α = 0, which does every operation but leaves
// the rows where they are, so each run times the same data.
func benchSGD(b *testing.B, step func(x, y []float32)) {
	const dim, rows = 16, 1024
	rng := rand.New(rand.NewSource(36))
	emb := make([]float32, rows*dim)
	for i := range emb {
		emb[i] = float32(rng.NormFloat64())
	}
	pairs := make([][2]int, 4096)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(rows), rng.Intn(rows)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&4095]
		step(emb[p[0]*dim:(p[0]+1)*dim], emb[p[1]*dim:(p[1]+1)*dim])
	}
}

func BenchmarkSGDL2Sq16(b *testing.B) {
	var sink float32
	b.Run("kernel", func(b *testing.B) { benchSGD(b, func(x, y []float32) { sink += layoutL2Sq(x, y) }) })
	b.Run("go", func(b *testing.B) { benchSGD(b, func(x, y []float32) { sink += goL2Sq(x, y) }) })
	benchSink = sink
}

func BenchmarkSGDAttract16(b *testing.B) {
	b.Run("kernel", func(b *testing.B) { benchSGD(b, func(x, y []float32) { attract(x, y, -0.8, 0) }) })
	b.Run("go", func(b *testing.B) { benchSGD(b, func(x, y []float32) { goAttract(x, y, -0.8, 0) }) })
}

func BenchmarkSGDRepel16(b *testing.B) {
	b.Run("kernel", func(b *testing.B) { benchSGD(b, func(x, y []float32) { repel(x, y, 0.5, 0) }) })
	b.Run("go", func(b *testing.B) { benchSGD(b, func(x, y []float32) { goRepel(x, y, 0.5, 0) }) })
}
