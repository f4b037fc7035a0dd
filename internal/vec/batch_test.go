package vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func randMat(rng *rand.Rand, rows, dim int) [][]float32 {
	out := make([][]float32, rows)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = rng.Float32()*2 - 1
		}
		out[i] = v
	}
	return out
}

// The batched kernels must agree with a float64 reference within the same
// tolerance the scalar kernels are held to, across remainder-exercising
// lengths and query counts that leave a non-multiple-of-4 tail.
func TestDotBatchFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 192, 768, 1001} {
		for _, nq := range []int{1, 2, 3, 4, 5, 7, 8} {
			qs := randMat(rng, nq, dim)
			vs := randMat(rng, 6, dim)
			out := make([]float32, nq*len(vs))
			DotBatch(qs, vs, out)
			for i := range qs {
				for j := range vs {
					var ref float64
					for d := 0; d < dim; d++ {
						ref += float64(qs[i][d]) * float64(vs[j][d])
					}
					got := out[i*len(vs)+j]
					eps := 1e-4 * (1 + math.Abs(ref))
					if math.Abs(float64(got)-ref) > eps {
						t.Fatalf("dim=%d DotBatch[%d][%d]=%v float64 ref=%v", dim, i, j, got, ref)
					}
				}
			}
		}
	}
}

func TestL2SqBatchFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dim := range []int{0, 1, 7, 8, 9, 16, 63, 192, 768, 1001} {
		for _, nq := range []int{1, 3, 4, 5, 8} {
			qs := randMat(rng, nq, dim)
			vs := randMat(rng, 5, dim)
			out := make([]float32, nq*len(vs))
			L2SqBatch(qs, vs, out)
			for i := range qs {
				for j := range vs {
					var ref float64
					for d := 0; d < dim; d++ {
						e := float64(qs[i][d]) - float64(vs[j][d])
						ref += e * e
					}
					got := out[i*len(vs)+j]
					eps := 1e-4 * (1 + math.Abs(ref))
					if math.Abs(float64(got)-ref) > eps {
						t.Fatalf("dim=%d L2SqBatch[%d][%d]=%v float64 ref=%v", dim, i, j, got, ref)
					}
				}
			}
		}
	}
}

// The ExS batch path promises results bit-identical to the sequential scan,
// which rests on DotBatch being bit-identical to Dot per (query, value) pair
// — not merely within tolerance.
func TestDotBatchBitIdenticalToDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 7, 8, 17, 64, 192, 768} {
		for _, nq := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
			qs := randMat(rng, nq, dim)
			vs := randMat(rng, 7, dim)
			out := make([]float32, nq*len(vs))
			DotBatch(qs, vs, out)
			for i := range qs {
				for j := range vs {
					want := Dot(qs[i], vs[j])
					got := out[i*len(vs)+j]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("dim=%d nq=%d DotBatch[%d][%d]=%b Dot=%b: not bit-identical",
							dim, nq, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestL2SqBatchBitIdenticalToL2Sq(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dim := range []int{1, 8, 17, 192} {
		for _, nq := range []int{1, 4, 5, 9} {
			qs := randMat(rng, nq, dim)
			vs := randMat(rng, 5, dim)
			out := make([]float32, nq*len(vs))
			L2SqBatch(qs, vs, out)
			for i := range qs {
				for j := range vs {
					want := L2Sq(qs[i], vs[j])
					got := out[i*len(vs)+j]
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("dim=%d nq=%d L2SqBatch[%d][%d]=%b L2Sq=%b: not bit-identical",
							dim, nq, i, j, got, want)
					}
				}
			}
		}
	}
}

func TestDotBatchEmptyOperands(t *testing.T) {
	DotBatch(nil, nil, nil)                     // no queries, no values
	DotBatch([][]float32{{1, 2}}, nil, nil)     // no values: zero-width rows
	DotBatch(nil, [][]float32{{1, 2}}, nil)     // no queries
	L2SqBatch(nil, [][]float32{{1, 2, 3}}, nil) // ditto for the L2 kernel
	out := make([]float32, 4)
	DotBatch(randMat(rand.New(rand.NewSource(1)), 4, 0), randMat(rand.New(rand.NewSource(2)), 1, 0), out)
	for _, x := range out {
		if x != 0 {
			t.Fatalf("zero-dim dot = %v, want 0", x)
		}
	}
}

func TestDotBatchShortOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short out slice")
		}
	}()
	DotBatch(randMat(rand.New(rand.NewSource(1)), 2, 4), randMat(rand.New(rand.NewSource(2)), 3, 4), make([]float32, 5))
}

// TopKDesc must return exactly the prefix the full sort would: same IDs,
// same order, ties included. Drawing scores from a tiny discrete set makes
// tie groups span the k boundary constantly, which is exactly the case a
// score-only selection heap gets wrong.
func TestTopKDescMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = float32(rng.Intn(4)) // dense ties
		}
		full := make([]Scored, n)
		for i, s := range scores {
			full[i] = Scored{ID: i, Score: s}
		}
		SortScoredDesc(full)
		for _, k := range []int{0, 1, 2, 3, n / 2, n - 1, n, n + 3} {
			got := TopKDesc(scores, k)
			want := full
			if k < 0 {
				k = 0
			}
			if k < len(want) {
				want = want[:k]
			}
			if k <= 0 {
				want = nil
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: got %d entries, want %d", n, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d entry %d: got %+v, full sort gives %+v\nscores=%v",
						n, k, i, got[i], want[i], scores)
				}
			}
		}
	}
}

func TestTopKDescBitIdenticalScores(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scores := make([]float32, 500)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	full := make([]Scored, len(scores))
	for i, s := range scores {
		full[i] = Scored{ID: i, Score: s}
	}
	SortScoredDesc(full)
	got := TopKDesc(scores, 20)
	for i := range got {
		if math.Float32bits(got[i].Score) != math.Float32bits(full[i].Score) {
			t.Fatalf("entry %d: score %b != %b", i, got[i].Score, full[i].Score)
		}
		if got[i].ID != full[i].ID {
			t.Fatalf("entry %d: ID %d != %d", i, got[i].ID, full[i].ID)
		}
	}
}

// NearestK replaced a sort.Slice over every (dist, index) pair of a row in
// the exact kNN, the core-distance pass and Transform: it must return that
// sort's prefix, ties and the skipped self entry included.
func TestNearestKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var buf []Neighbor
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		dists := make([]float32, n)
		for i := range dists {
			dists[i] = float32(rng.Intn(5)) // dense ties
		}
		skip := rng.Intn(n+1) - 1 // -1: keep every entry
		var full []Neighbor
		for j, d := range dists {
			if j != skip {
				full = append(full, Neighbor{ID: int32(j), Dist: d})
			}
		}
		sort.Slice(full, func(a, b int) bool {
			if full[a].Dist != full[b].Dist {
				return full[a].Dist < full[b].Dist
			}
			return full[a].ID < full[b].ID
		})
		for _, k := range []int{0, 1, 2, 7, n / 2, n - 1, n, n + 3} {
			want := full
			if k < len(want) {
				want = want[:max(k, 0)]
			}
			buf = NearestK(dists, k, skip, buf)
			if len(buf) != len(want) {
				t.Fatalf("n=%d k=%d skip=%d: got %d entries, want %d", n, k, skip, len(buf), len(want))
			}
			for i := range buf {
				if buf[i] != want[i] {
					t.Fatalf("n=%d k=%d skip=%d entry %d: got %+v, full sort gives %+v\ndists=%v",
						n, k, skip, i, buf[i], want[i], dists)
				}
			}
		}
	}
}

// NearestAll must return, for every point, what the per-row scan it
// replaced returned: the full row through L2SqBatch, rooted, then NearestK
// skipping the point itself. The inputs are tie-heavy — integer-grid
// coordinates and repeated points — so the (dist, index) order decides
// most lists; n runs off the 4-row tile, and the worker counts split the
// tiles differently without changing a list.
func TestNearestAllMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{3, 16, 40} {
		for _, n := range []int{0, 1, 2, 5, 23, 37, 101} {
			points := make([][]float32, n)
			for i := range points {
				if i > 0 && rng.Intn(4) == 0 {
					points[i] = points[rng.Intn(i)] // a duplicate
					continue
				}
				p := make([]float32, dim)
				for d := range p {
					p[d] = float32(rng.Intn(3))
				}
				points[i] = p
			}
			row := make([]float32, n)
			for _, k := range []int{0, 1, 5, 15, n - 1, n + 2} {
				want := make([][]Neighbor, n)
				for i := range points {
					L2SqBatch(points[i:i+1], points, row)
					for j, d2 := range row {
						row[j] = float32(math.Sqrt(float64(d2)))
					}
					want[i] = NearestK(row, k, i, nil)
				}
				for _, workers := range []int{1, 2, 4} {
					got := NearestAll(points, k, workers)
					if len(got) != n {
						t.Fatalf("dim=%d n=%d k=%d workers=%d: %d lists, want %d", dim, n, k, workers, len(got), n)
					}
					for i := range want {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("dim=%d n=%d k=%d workers=%d: list %d has %d entries, want %d",
								dim, n, k, workers, i, len(got[i]), len(want[i]))
						}
						for r := range want[i] {
							g, w := got[i][r], want[i][r]
							if g.ID != w.ID || math.Float32bits(g.Dist) != math.Float32bits(w.Dist) {
								t.Fatalf("dim=%d n=%d k=%d workers=%d: list %d entry %d = %+v, per-row scan gives %+v",
									dim, n, k, workers, i, r, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// The headline kernel comparison: one blocked DotBatch pass vs the same
// work as repeated single-query Dot calls. Regressions in the blocking
// show up as the two throughputs converging (see make bench-kernels).
func benchDotBatch(b *testing.B, nq, nv, dim int) {
	rng := rand.New(rand.NewSource(9))
	qs := randMat(rng, nq, dim)
	vs := randMat(rng, nv, dim)
	out := make([]float32, nq*nv)
	b.SetBytes(int64(nq) * int64(nv) * int64(dim) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotBatch(qs, vs, out)
	}
}

func benchDotLoop(b *testing.B, nq, nv, dim int) {
	rng := rand.New(rand.NewSource(9))
	qs := randMat(rng, nq, dim)
	vs := randMat(rng, nv, dim)
	out := make([]float32, nq*nv)
	b.SetBytes(int64(nq) * int64(nv) * int64(dim) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi, q := range qs {
			for vi, v := range vs {
				out[qi*nv+vi] = Dot(q, v)
			}
		}
	}
}

func BenchmarkDotBatch192x64(b *testing.B)    { benchDotBatch(b, 64, 64, 192) }
func BenchmarkDotRepeated192x64(b *testing.B) { benchDotLoop(b, 64, 64, 192) }
func BenchmarkDotBatch768x16(b *testing.B)    { benchDotBatch(b, 16, 64, 768) }
func BenchmarkDotRepeated768x16(b *testing.B) { benchDotLoop(b, 16, 64, 768) }

// BenchmarkDotBatchRows is ExS's verify shape for one query: a relation's
// 26 value rows of dim 256 scored through DotBatch with the rows as the
// block's "queries" against q (batch), and through a Dot loop (dot). hot
// reuses one relation's rows; pool steps through the relations of an 8 MB
// row pool, past this box's L2, as a large corpus's verification does.
func BenchmarkDotBatchRows(b *testing.B) {
	const dim, m = 256, 26
	rng := rand.New(rand.NewSource(12))
	q := randMat(rng, 1, dim)
	pool := randMat(rng, 8<<20/(dim*4), dim)
	for _, set := range []struct {
		name string
		rels int
	}{{"hot", 1}, {"pool", len(pool) / m}} {
		for _, batch := range []bool{true, false} {
			name := set.name + "/dot"
			if batch {
				name = set.name + "/batch"
			}
			b.Run(name, func(b *testing.B) {
				out := make([]float32, m)
				b.SetBytes(m * dim * 4)
				for i := 0; i < b.N; i++ {
					r := i % set.rels
					rows := pool[r*m : (r+1)*m]
					if batch {
						DotBatch(rows, q, out)
						continue
					}
					for j, row := range rows {
						out[j] = Dot(q[0], row)
					}
				}
			})
		}
	}
}

func BenchmarkL2SqBatch192x64(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	qs := randMat(rng, 64, 192)
	vs := randMat(rng, 64, 192)
	out := make([]float32, len(qs)*len(vs))
	b.SetBytes(int64(len(qs)) * int64(len(vs)) * 192 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SqBatch(qs, vs, out)
	}
}

func BenchmarkTopKDesc20of10000(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	scores := make([]float32, 10000)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKDesc(scores, 20)
	}
}

func BenchmarkFullSort10000(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	scores := make([]float32, 10000)
	for i := range scores {
		scores[i] = rng.Float32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scored := make([]Scored, len(scores))
		for j, s := range scores {
			scored[j] = Scored{ID: j, Score: s}
		}
		SortScoredDesc(scored)
	}
}
