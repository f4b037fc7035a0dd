package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// halfValue is the value of binary16 bits h, computed from the fields
// alone (no float32 in the way).
func halfValue(h uint16) float64 {
	exp, man := int(h>>10&0x1f), float64(h&0x3ff)
	v := math.Ldexp(man, -24)
	switch exp {
	case 0x1f:
		v = math.Inf(1)
		if man != 0 {
			v = math.NaN()
		}
	case 0:
	default:
		v = math.Ldexp(1024+man, exp-25)
	}
	if h&0x8000 != 0 {
		v = -v
	}
	return v
}

// forEachHalfBody runs f once per DotHalf body this build has: the
// assembly one (when the CPU has it) and the pure-Go one.
func forEachHalfBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	bodies := []bool{true}
	if halfAsm {
		bodies = []bool{false, true}
	}
	for _, goBody := range bodies {
		name := "asm"
		if goBody {
			name = "go"
		}
		t.Run(name, func(t *testing.T) {
			SetHalfGoBody(goBody)
			defer SetHalfGoBody(false)
			f(t)
		})
	}
}

// TestHalfToFloat32Exact converts all 65,536 bit patterns: every number
// comes out exactly, every NaN as a quiet NaN with its payload, and ToHalf
// takes every number back to its bits.
func TestHalfToFloat32Exact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		got, want := HalfToFloat32(h), halfValue(h)
		if math.IsNaN(want) {
			if b := math.Float32bits(got); !math.IsNaN(float64(got)) || b&0x400000 == 0 || b>>13&0x3ff != uint32(h&0x3ff)|0x200 || b>>31 != uint32(h>>15) {
				t.Fatalf("%#04x: %#08x, want a quiet NaN with its payload and sign", h, b)
			}
			continue
		}
		if float64(got) != want || math.Signbit(float64(got)) != (h&0x8000 != 0) {
			t.Fatalf("%#04x: %g, want %g", h, got, want)
		}
		if back := ToHalf(want); back != h {
			t.Fatalf("ToHalf(%g) = %#04x, want %#04x", want, back, h)
		}
	}
}

// TestToHalfRoundsToNearestEven checks the rounding between every pair of
// adjacent binary16 numbers of either sign: just inside either side goes
// to that side, the midpoint to the even one. Past the largest finite
// value, the next step (65536) is what rounds to Inf.
func TestToHalfRoundsToNearestEven(t *testing.T) {
	for _, sign := range []uint16{0, 0x8000} {
		for h := sign; h < sign|0x7c00; h++ {
			lo, hi := halfValue(h), halfValue(h+1)
			if h == sign|0x7bff {
				hi = math.Copysign(65536, lo)
			}
			mid := (lo + hi) / 2
			even := h
			if h&1 == 1 {
				even = h + 1
			}
			for _, c := range []struct {
				x    float64
				want uint16
			}{
				{lo, h}, {math.Nextafter(mid, lo), h}, {mid, even}, {math.Nextafter(mid, hi), h + 1},
			} {
				if got := ToHalf(c.x); got != c.want {
					t.Fatalf("ToHalf(%g) = %#04x, want %#04x (between %#04x and %#04x)", c.x, got, c.want, h, h+1)
				}
			}
		}
	}
	for _, c := range []struct {
		x    float64
		want uint16
	}{
		{0x1p-25, 0}, {math.Nextafter(0x1p-25, 1), 1}, {-0x1p-25, 0x8000}, {1e-300, 0},
		{65519.99, 0x7bff}, {65520, 0x7c00}, {-65520, 0xfc00}, {1e300, 0x7c00},
		{math.Inf(1), 0x7c00}, {math.Inf(-1), 0xfc00}, {math.Copysign(0, -1), 0x8000},
	} {
		if got := ToHalf(c.x); got != c.want {
			t.Fatalf("ToHalf(%g) = %#04x, want %#04x", c.x, got, c.want)
		}
	}
	if got := ToHalf(math.NaN()); got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
		t.Fatalf("ToHalf(NaN) = %#04x, want a NaN", got)
	}
}

// randHalfRows returns n rows of dim binary16 values, mixed magnitudes
// with some subnormals, and the queries.
func randHalfRows(rng *rand.Rand, n, dim int) []uint16 {
	rows := make([]uint16, n*dim)
	for i := range rows {
		rows[i] = ToHalf(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-6)))
	}
	return rows
}

// TestDotHalfPairIdentity is DotHalf's promise: a pair's score has the same
// bits in every call shape — the query alone or among up to 17, the row
// alone, first, last or odd out, at dims on and off the 16-float block —
// and lies within γ_dim·Σ|qⱼ||hⱼ| of the exact dot product.
func TestDotHalfPairIdentity(t *testing.T) {
	forEachHalfBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, dim := range []int{1, 7, 15, 16, 17, 31, 32, 100, 256, 257, 768} {
			for _, n := range []int{1, 2, 3, 5, 64} {
				rows := randHalfRows(rng, n, dim)
				for _, nq := range []int{1, 2, 4, 5, 8, 17} {
					qs := randMat(rng, nq, dim)
					stride := n + rng.Intn(3)
					out := make([]float32, (nq-1)*stride+n)
					DotHalf(qs, rows, out, stride)
					for i, q := range qs {
						for r := 0; r < n; r++ {
							h := rows[r*dim : (r+1)*dim]
							var one [1]float32
							DotHalf([][]float32{q}, h, one[:], 1)
							got := out[i*stride+r]
							if math.Float32bits(got) != math.Float32bits(one[0]) {
								t.Fatalf("dim %d, %d rows, %d queries: pair (%d, %d) = %#08x, alone %#08x",
									dim, n, nq, i, r, math.Float32bits(got), math.Float32bits(one[0]))
							}
							var exact, abs float64
							for j, x := range q {
								p := float64(x) * halfValue(h[j])
								exact += p
								abs += math.Abs(p)
							}
							nu := float64(dim) * 0x1p-24
							if err := math.Abs(float64(got) - exact); err > nu/(1-nu)*abs {
								t.Fatalf("dim %d: pair (%d, %d) = %g, exact %g: error %g over γ_dim·Σ|q||h| = %g",
									dim, i, r, got, exact, err, nu/(1-nu)*abs)
							}
						}
					}
				}
			}
		}
	})
}

func TestDotHalfShortOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DotHalf with a short out did not panic")
		}
	}()
	DotHalf([][]float32{make([]float32, 16), make([]float32, 16)}, make([]uint16, 32), make([]float32, 3), 2)
}

// BenchmarkDotHalf scores 1 and 4 queries against exs-scan's centroid
// matrix shape, 2,400 binary16 rows of 256 dims (1.2 MB), and reports the
// row bytes scored per second: a row counts once per query, as DotBatch's
// MB/s counts it.
func BenchmarkDotHalf(b *testing.B) {
	const n, dim = 2400, 256
	rng := rand.New(rand.NewSource(5))
	// Centroid-like rows: components of a unit-scale mean, none subnormal.
	rows := make([]uint16, n*dim)
	for i := range rows {
		rows[i] = ToHalf(rng.NormFloat64() / 16)
	}
	bodies := []bool{true}
	if halfAsm {
		bodies = []bool{false, true}
	}
	for _, nq := range []int{1, 4} {
		qs := randMat(rng, nq, dim)
		out := make([]float32, nq*n)
		for _, goBody := range bodies {
			name := "kernel"
			if goBody {
				name = "go"
			}
			b.Run(fmt.Sprintf("q=%d/%s", nq, name), func(b *testing.B) {
				SetHalfGoBody(goBody)
				defer SetHalfGoBody(false)
				for i := 0; i < b.N; i++ {
					DotHalf(qs, rows, out, n)
				}
				b.ReportMetric(float64(b.N)*float64(nq*len(rows)*2)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
