package vectordb

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// graphHash folds every layer's adjacency — layer, node id, degree and the
// neighbour ids in stored order — into one FNV-1a value. It links the
// collection's pending rows first, through GraphStats, so the graph hashed
// is the one a walk would take.
func graphHash(c *Collection) uint64 {
	c.GraphStats()
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	for l := 0; l <= c.index.MaxLevel(); l++ {
		g := c.index.Graph(l)
		ids := make([]int32, 0, len(g))
		for id := range g {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		put(int32(l))
		for _, id := range ids {
			put(id)
			put(int32(len(g[id])))
			for _, nb := range g[id] {
				put(nb)
			}
		}
	}
	return h.Sum64()
}

// TestSerialBuildGraphGolden pins the serial construction path edge for
// edge: the constants were recorded by running this test body at the commit
// before construction distances moved off the SDC table (pq256: before the
// PQ kernels moved to assembly), so any change to which floats are summed,
// in which order, or to the beam's tie-breaking shows up here as a
// different graph. pq256 is the ANNS index's shape — 4-dim subspaces with
// 256 centroids, where CodeDist and Table.Lookup take their byte-indexed
// kernels; pq's K = 64 keeps their general bodies.
func TestSerialBuildGraphGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, dim int
		pq     *PQConfig
		want   uint64
	}{
		{"pq", 800, 64, &PQConfig{M: 16, K: 64, TrainSize: 256}, 0x1dc83a0d05f1019b},
		{"raw", 800, 64, nil, 0x65fee130aa6bee46},
		{"pq256", 1000, 256, &PQConfig{M: 64, K: 256, TrainSize: 256}, 0xe902ebcce35b12b2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vecs, _ := randUnits(tc.n, tc.dim, rand.New(rand.NewSource(41)))
			c := build(t, CollectionConfig{Dim: tc.dim, Seed: 41, PQ: tc.pq, Workers: 1}, vecs, nil)
			if got := graphHash(c); got != tc.want {
				t.Fatalf("graph hash %#x, want %#x", got, tc.want)
			}
		})
	}
}

// BenchmarkBuildPQ times serial construction in the ANNS index's shape:
// dim 256, 4-dim PQ subspaces with 256 centroids, so every construction
// distance after the first 512 vectors is a code-to-code distance. The
// end-to-end benchmark's anns-graph set-up no longer builds this graph: its
// 1,822 texts stay below the default beam's scan bound, so it links no row
// until something reads the graph. 3,200 points are past the bound
// (¾ × 64 × 32 = 1,536 at the default beam), so Build links every row; the
// benchmark fails if the collection ends with rows pending, which would
// make it time storage alone.
func BenchmarkBuildPQ(b *testing.B) {
	const (
		n   = 3200
		dim = 256
	)
	vecs, _ := randUnits(n, dim, rand.New(rand.NewSource(16)))
	cfg := CollectionConfig{Dim: dim, Seed: 16, Workers: 1, PQ: &PQConfig{M: 64, K: 256, TrainSize: 512}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := build(b, cfg, vecs, nil)
		if got := linkedRows(c); got != n {
			b.Fatalf("%d of %d rows linked: the build timed storage, not the graph", got, n)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perVec := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Microseconds())/perVec, "µs/vector")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perVec, "allocs/vector")
}

// TestParallelBuildAcrossTrainingBoundary runs the concurrent construction
// path end to end under -race: a four-worker Build whose rows straddle the
// PQ training boundary, linked by the first GraphStats since 1,200 points
// stay below the default beam's scan bound: the early rows enter the graph
// under raw distances and the rest under per-target row tables, one table
// per worker.
// The graph must come out whole and as useful as a serial one; then
// concurrent single-query searches share the index's scratch pool, where a
// scratch handed to two live walks would corrupt both answers.
func TestParallelBuildAcrossTrainingBoundary(t *testing.T) {
	const (
		n   = 1200
		dim = 32
		k   = 10
	)
	vecs, tags := randUnits(n, dim, rand.New(rand.NewSource(77)))
	c := build(t, CollectionConfig{
		Dim: dim, Seed: 77, Workers: 4, EfConstruction: 100,
		PQ: &PQConfig{M: 16, K: 64, TrainSize: 300},
	}, vecs, tags)
	if !c.Stats().Compressed {
		t.Fatal("PQ did not train")
	}
	// Which worker links first is up to the scheduler, and an insertion
	// that re-selects a full list can take away another node's last
	// in-edge: a few builds in a thousand leave one node of the 1,200
	// unreachable. More than a handful means the locking is broken.
	if got := c.GraphStats().ReachableFraction; got < 0.995 {
		t.Fatalf("reachable fraction %v after the parallel build", got)
	}

	queries := vecs[:200]
	want := make([][]Result, len(queries))
	hits := 0
	for i, q := range queries {
		exact, err := c.SearchExact(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = walkSearch(c, q, k, 128, nil); err != nil {
			t.Fatal(err)
		}
		truth := make(map[int32]bool, k)
		for _, r := range exact {
			truth[r.Tag] = true
		}
		for _, r := range want[i] {
			if truth[r.Tag] {
				hits++
			}
		}
	}
	if recall := float64(hits) / float64(k*len(queries)); recall < 0.9 {
		t.Fatalf("recall@%d vs SearchExact = %.3f, want >= 0.9", k, recall)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += 4 { // every query from two goroutines
				got, err := walkSearch(c, queries[i], k, 128, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want[i]) {
					t.Errorf("query %d: %d results under concurrency, %d alone", i, len(got), len(want[i]))
					return
				}
				for j := range got {
					if got[j].Tag != want[i][j].Tag || math.Float32bits(got[j].Score) != math.Float32bits(want[i][j].Score) {
						t.Errorf("query %d result %d: %+v under concurrency, %+v alone", i, j, got[j], want[i][j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
