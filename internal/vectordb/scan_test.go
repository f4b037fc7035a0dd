package vectordb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"semdisco/internal/hnsw"
	"semdisco/internal/obs"
	"semdisco/internal/pq"
)

// sameResults fails unless a and b hold the same hits in the same order:
// tags and score bits. The tests that call it tag each row with its
// insertion index, so a tag names one row.
func sameResults(t *testing.T, what string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Tag != b[i].Tag || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			t.Fatalf("%s: result %d is %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

// TestScanMatchesExhaustiveWalk pins the scan plan to the walk it replaces
// where that walk is exhaustive: a beam of at least the slot count over a
// connected graph evaluates every slot and evicts none, so it returns the
// first k accepted slots under (distance, slot) — what the scan computes.
// Raw, PQ at K = 256 (LookupBatch's eight-slot kernel) and PQ at K = 30
// (its Go body) collections carry duplicate vectors (so distances tie
// and the slot order decides) and tags a filter rejects; the queries include
// stored vectors and k beyond the row count. Every query's results, single
// and in a block, must match the forced walk in tags and score bits, and
// the default plan must take the scan and charge one
// ADC lookup (raw: one distance) per slot and no hops.
func TestScanMatchesExhaustiveWalk(t *testing.T) {
	const n, dim = 605, 32 // the last scan block holds 29 slots: 3 arena blocks and 5 slots of a padded one
	for _, tc := range []struct {
		name string
		pq   *PQConfig
	}{
		{"raw", nil},
		{"pq256", &PQConfig{M: 8, K: 256, TrainSize: 300}},
		{"pq30", &PQConfig{M: 8, K: 30, TrainSize: 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			vecs := make([][]float32, n)
			tags := make([]int32, n)
			for i := range vecs {
				if i%4 == 3 {
					vecs[i] = vecs[rng.Intn(i)]
				} else {
					vecs[i] = randUnit(dim, rng)
				}
				tags[i] = int32(i)
			}
			c := build(t, CollectionConfig{Dim: dim, Seed: 43, PQ: tc.pq}, vecs, tags)
			if (tc.pq != nil) != (c.Quantizer() != nil) {
				t.Fatalf("quantizer trained = %v, want %v", c.Quantizer() != nil, tc.pq != nil)
			}
			if got := c.GraphStats().ReachableFraction; got != 1 {
				t.Fatalf("reachable fraction %v: the walk would not be exhaustive", got)
			}

			var queries [][]float32
			for i := 0; i < 6; i++ {
				queries = append(queries, vecs[rng.Intn(n)], randUnit(dim, rng))
			}
			prepared := Prepare(queries)
			ks := []int{1, 2, 3, 5, 8, 10, 17, 40, 100, 250, 599, 1000}
			efs := make([]int, len(ks))
			for i := range efs {
				efs[i] = n
			}
			ctx := context.Background()
			for _, f := range []struct {
				name   string
				filter Filter
			}{
				{"unfiltered", nil},
				{"filtered", func(tag int32) bool { return tag%5 != 2 }},
			} {
				walk, err := c.searchBatch(ctx, prepared, ks, efs, f.filter, nil, planWalk)
				if err != nil {
					t.Fatal(err)
				}
				scan, err := c.searchBatch(ctx, prepared, ks, efs, f.filter, nil, planScan)
				if err != nil {
					t.Fatal(err)
				}
				costs := make([]*obs.Cost, len(ks))
				for i := range costs {
					costs[i] = &obs.Cost{}
				}
				auto, err := c.SearchBatch(ctx, prepared, ks, efs, f.filter, costs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range queries {
					what := func(plan string) string { return fmt.Sprintf("%s query %d (k %d), %s", f.name, i, ks[i], plan) }
					sameResults(t, what("scan block vs walk block"), scan[i], walk[i])
					sameResults(t, what("default block vs walk block"), auto[i], walk[i])
					one, err := c.searchBatch(ctx, prepared[i:i+1], ks[i:i+1], efs[i:i+1], f.filter, nil, planScan)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, what("single scan vs walk block"), one[0], walk[i])
					one, err = c.searchBatch(ctx, prepared[i:i+1], ks[i:i+1], efs[i:i+1], f.filter, nil, planWalk)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, what("single walk vs walk block"), one[0], walk[i])

					rep := costs[i].Report()
					scored := rep.PQLookups
					if tc.pq == nil {
						scored = rep.DistanceComps
					}
					if scored != n || rep.PQLookups+rep.DistanceComps != n || rep.ValuesScanned != n || rep.HNSWHops != 0 {
						t.Fatalf("%s: cost %+v, want %d slots scanned and scored and no hops", what("default"), rep, n)
					}
				}
			}
		})
	}
}

// TestSearchPlanBound pins where the default plan switches: a query scans
// while the collection holds at most ¾ × ef × 2M slots and walks above
// that, and only a scan charges scanned values.
func TestSearchPlanBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs, _ := randUnits(80, 8, rng)
	c := build(t, CollectionConfig{Dim: 8, Seed: 5, M: 4}, vecs, nil)
	// 2M = 8: a beam of 14 covers ¾ × 14 × 8 = 84 slots, a beam of 13 78.
	q := Prepare([][]float32{randUnit(8, rng)})
	for _, tc := range []struct {
		ef   int
		scan bool
	}{{14, true}, {15, true}, {13, false}, {1, false}} {
		cost := &obs.Cost{}
		if _, err := c.SearchBatch(context.Background(), q, []int{3}, []int{tc.ef}, nil, []*obs.Cost{cost}); err != nil {
			t.Fatal(err)
		}
		rep := cost.Report()
		if tc.scan && (rep.ValuesScanned != 80 || rep.HNSWHops != 0) || !tc.scan && (rep.ValuesScanned != 0 || rep.HNSWHops == 0) {
			t.Errorf("ef %d: cost %+v, want a scan: %v", tc.ef, rep, tc.scan)
		}
	}
}

// BenchmarkSearchPlan times one query walked and one scanned over the same
// PQ-coded collection in the ANNS index's shape (dim 256, 4-dim subspaces
// with 256 centroids), at 1k to 32k slots and beams of 128 and 320, each
// query retrieving as many points as its beam is wide, as an ANNS query
// does. Each size builds its collection from a prefix of one point set,
// drawn around 64 centres (cosine ~0.5 to their centre), closer to embedded
// text than uniform noise; the queries are fresh points of the same
// mixture.
// The sizes step finely around ef × 2M = ef × 32 slots (4,096 at ef 128,
// 10,240 at ef 320), the most the walk's expansions can read, and include
// the default plan's bound, ¾ of that (3,072 and 7,680): the table this
// prints is where scanQuarters comes from.
func BenchmarkSearchPlan(b *testing.B) {
	const (
		dim      = 256
		maxN     = 32 << 10
		nQueries = 64
	)
	rng := rand.New(rand.NewSource(19))
	centres := make([][]float32, 64)
	for i := range centres {
		centres[i] = randUnit(dim, rng)
	}
	point := func() []float32 {
		v := append([]float32(nil), centres[rng.Intn(len(centres))]...)
		for d := range v {
			v[d] += float32(rng.NormFloat64() / 16)
		}
		return v
	}
	vecs := make([][]float32, maxN)
	for i := range vecs {
		vecs[i] = point()
	}
	queries := make([][]float32, nQueries)
	for i := range queries {
		queries[i] = point()
	}
	prepared := Prepare(queries)
	cfg := CollectionConfig{Dim: dim, Seed: 19, Workers: 2, PQ: &PQConfig{M: 64, K: 256, TrainSize: 512}}
	ctx := context.Background()
	for _, n := range []int{1 << 10, 2 << 10, 3 << 10, 4 << 10, 6 << 10, 7680, 8 << 10, 10 << 10, 12 << 10, 16 << 10, maxN} {
		c := build(b, cfg, vecs[:n], nil)
		for _, ef := range []int{128, 320} {
			for _, p := range []struct {
				name string
				plan plan
			}{{"walk", planWalk}, {"scan", planScan}} {
				b.Run(fmt.Sprintf("n=%d/ef=%d/%s", n, ef, p.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						j := i % nQueries
						if _, err := c.searchBatch(ctx, prepared[j:j+1], []int{ef}, []int{ef}, nil, nil, p.plan); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/query")
				})
			}
		}
	}
}

// BenchmarkScan times one query's scan in anns-graph's shape — 1,822
// PQ-coded slots at dim 256 (64 subspaces of 4 dims, K = 256), k = the
// fanout 320 — whole, and in its three parts: the query's ADC table, the
// arena's lookups (LookupBatch over every slot) and the select (a key per
// slot, then SelectNearest), in µs per query.
func BenchmarkScan(b *testing.B) {
	const n, dim, k, nQueries = 1822, 256, 320, 16
	rng := rand.New(rand.NewSource(23))
	vecs, _ := randUnits(n, dim, rng)
	c := build(b, CollectionConfig{Dim: dim, Seed: 23, PQ: &PQConfig{M: 64, K: 256, TrainSize: 512}}, vecs, nil)
	queries := make([][]float32, nQueries)
	for i := range queries {
		queries[i] = randUnit(dim, rng)
	}
	prepared := Prepare(queries)
	ws := new(walkScratch)
	tables := make([]pq.Table, nQueries)
	dots := make([][]float32, nQueries)
	for j, q := range prepared {
		tables[j] = c.quantizer.DotTable(q, pq.Table{})
		dots[j] = make([]float32, n)
		tables[j].LookupBatch(c.codes, 0, dots[j])
	}
	out := make([]float32, n)
	keys := make([]Key, 0, n)
	for _, bc := range []struct {
		name string
		fn   func(j int)
	}{
		{"scan", func(j int) { c.scan(prepared[j], k, nil, nil, nil, ws) }},
		{"table", func(j int) { ws.table = c.quantizer.DotTable(prepared[j], ws.table) }},
		{"lookups", func(j int) { tables[j].LookupBatch(c.codes, 0, out) }},
		{"select", func(j int) {
			keys = keys[:0]
			for slot, d := range dots[j] {
				keys = append(keys, KeyOf(d, int32(slot)))
			}
			SelectNearest(keys, k)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn(i % nQueries)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/query")
		})
	}
}

// TestSelectNearestMatchesSort holds SelectNearest over KeyOf's keys to a
// full sort of the same candidates under hnsw.Compare — the walk's
// (distance, slot) order — for k of 1, 2, n−1, n and n+3, slot and distance
// bits alike. The similarities repeat (equal distances, ordered by slot),
// include pairs d ≠ d′ whose distances 1 − d and 1 − d′ round to one float
// (ordered by slot too, not by d), ±Inf and exact ±1, and the candidates
// arrive shuffled. A NaN similarity's candidate, which Compare orders with
// nothing, sorts after every number, NaNs by slot, with distance NaN.
func TestSelectNearestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// Each pair d ≠ d′ rounds to one distance: 1 − d is 1 for both of the
	// first two, and the others are neighbouring floats in [¼, ½), whose
	// ulp is half that of 1 − d.
	collide := [][2]float32{{1e-9, 2e-9}, {-1e-9, 3e-9}}
	for len(collide) < 8 {
		d := 0.25 + rng.Float32()/4
		d2 := math.Float32frombits(math.Float32bits(d) + 1)
		if 1-d == 1-d2 {
			collide = append(collide, [2]float32{d, d2})
		}
	}
	for _, n := range []int{1, 2, 3, 8, 9, 64, 333} {
		for _, nans := range []int{0, 1, 3} {
			sims := make([]float32, n)
			for i := range sims {
				switch r := rng.Intn(10); {
				case r < 4:
					sims[i] = float32(rng.Intn(7)) / 6 // repeats
				case r < 6:
					p := collide[rng.Intn(len(collide))]
					sims[i] = p[rng.Intn(2)]
				case r == 6:
					sims[i] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1}[rng.Intn(4)]
				default:
					sims[i] = float32(rng.NormFloat64())
				}
			}
			for i := 0; i < nans && i < n; i++ {
				sims[rng.Intn(n)] = float32(math.NaN())
			}
			var want, nan []hnsw.Neighbor
			for slot, d := range sims {
				nb := hnsw.Neighbor{ID: int32(slot) * 3, Dist: 1 - d}
				if d != d {
					nan = append(nan, nb)
				} else {
					want = append(want, nb)
				}
			}
			slices.SortFunc(want, hnsw.Compare)
			want = append(want, nan...) // already by slot
			keys := make([]Key, n)
			for slot, d := range sims {
				keys[slot] = KeyOf(d, int32(slot)*3)
			}
			for _, k := range []int{1, 2, n - 1, n, n + 3} {
				in := slices.Clone(keys)
				rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
				got := SelectNearest(in, k)
				if len(got) != min(k, n) {
					t.Fatalf("n %d, k %d: %d keys selected", n, k, len(got))
				}
				for i, key := range got {
					w := want[i]
					wantBits := math.Float32bits(w.Dist)
					if w.Dist != w.Dist {
						wantBits = 0x7fffffff
					}
					if key.Slot() != w.ID || math.Float32bits(key.Dist()) != wantBits {
						t.Fatalf("n %d, %d NaNs, k %d: rank %d is slot %d at %v, sort gives slot %d at %v",
							n, nans, k, i, key.Slot(), key.Dist(), w.ID, w.Dist)
					}
				}
			}
		}
	}
}
