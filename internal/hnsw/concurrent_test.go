package hnsw

import (
	"math/rand"
	"runtime"
	"testing"

	"semdisco/internal/vec"
)

// randomPoints returns n unit-ish vectors with mild cluster structure, the
// shape the index sees in production (embedded values are unit vectors).
func randomPoints(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float32, n)
	for i := range pts {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		pts[i] = vec.Normalize(v)
	}
	return pts
}

func l2DistFn(pts [][]float32) func(a, b int32) float32 {
	return func(a, b int32) float32 { return vec.L2Sq(pts[a], pts[b]) }
}

// TestAddBatchSerialMatchesAdd pins the Workers: 1 determinism contract:
// one AddBatch must produce exactly the graph that count individual Add
// calls produce.
func TestAddBatchSerialMatchesAdd(t *testing.T) {
	pts := randomPoints(300, 16, 1)
	dist := l2DistFn(pts)

	one := New(Config{M: 8, EfConstruction: 60, Seed: 42}, dist, nil)
	for range pts {
		one.Add()
	}
	batch := New(Config{M: 8, EfConstruction: 60, Seed: 42}, dist, nil)
	if first := batch.AddBatch(len(pts), 1); first != 0 {
		t.Fatalf("first id = %d, want 0", first)
	}

	if one.MaxLevel() != batch.MaxLevel() {
		t.Fatalf("max level %d != %d", one.MaxLevel(), batch.MaxLevel())
	}
	for l := 0; l <= one.MaxLevel(); l++ {
		ga, gb := one.Graph(l), batch.Graph(l)
		if len(ga) != len(gb) {
			t.Fatalf("layer %d: %d vs %d nodes", l, len(ga), len(gb))
		}
		for id, nbs := range ga {
			got := gb[id]
			if len(got) != len(nbs) {
				t.Fatalf("layer %d node %d: degree %d vs %d", l, id, len(got), len(nbs))
			}
			for i := range nbs {
				if nbs[i] != got[i] {
					t.Fatalf("layer %d node %d: adjacency diverged", l, id)
				}
			}
		}
	}
}

// TestConcurrentBuildInvariants is the -race stress test of the issue:
// insert from >= GOMAXPROCS goroutines, then assert the structural
// invariants — every node reachable from the entry point on layer 0, and
// every degree within the configured bounds.
func TestConcurrentBuildInvariants(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Still exercises interleavings (and the race detector) on small
		// machines: goroutines preempt even on one core.
		workers = 4
	}
	const (
		n   = 1500
		dim = 16
		m   = 12
	)
	pts := randomPoints(n, dim, 7)
	ix := New(Config{M: m, EfConstruction: 120, Seed: 7}, l2DistFn(pts), nil)
	if first := ix.AddBatch(n, workers); first != 0 {
		t.Fatalf("first id = %d, want 0", first)
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}

	st := ix.Stats()
	if st.ReachableFraction != 1.0 {
		t.Fatalf("reachable fraction = %v, want 1.0", st.ReachableFraction)
	}
	for l := 0; l <= ix.MaxLevel(); l++ {
		maxConn := m
		if l == 0 {
			maxConn = 2 * m
		}
		for id, nbs := range ix.Graph(l) {
			if len(nbs) > maxConn {
				t.Fatalf("layer %d node %d: degree %d exceeds bound %d", l, id, len(nbs), maxConn)
			}
			seen := make(map[int32]struct{}, len(nbs))
			for _, nb := range nbs {
				if nb == id {
					t.Fatalf("layer %d node %d: self-edge", l, id)
				}
				if nb < 0 || int(nb) >= n {
					t.Fatalf("layer %d node %d: neighbor %d out of range", l, id, nb)
				}
				if _, dup := seen[nb]; dup {
					t.Fatalf("layer %d node %d: duplicate edge to %d", l, id, nb)
				}
				seen[nb] = struct{}{}
			}
		}
	}
}

// TestConcurrentBuildRecall checks the parallel graph is not just intact
// but useful: brute-force top-10 against index top-10 must overlap well.
func TestConcurrentBuildRecall(t *testing.T) {
	const (
		n   = 1200
		dim = 24
		k   = 10
	)
	pts := randomPoints(n, dim, 3)
	ix := New(Config{M: 16, EfConstruction: 150, Seed: 3}, l2DistFn(pts), nil)
	ix.AddBatch(n, 8)

	queries := randomPoints(40, dim, 99)
	var hit, total int
	for _, q := range queries {
		q := q
		truth := make(map[int32]struct{}, k)
		top := vec.NewTopK(k)
		for i := range pts {
			top.Push(i, -vec.L2Sq(q, pts[i]))
		}
		for _, s := range top.Sorted() {
			truth[int32(s.ID)] = struct{}{}
		}
		res := ix.Search(func(id int32) float32 { return vec.L2Sq(q, pts[id]) }, k, 100, nil)
		for _, r := range res {
			if _, ok := truth[r.ID]; ok {
				hit++
			}
		}
		total += k
	}
	recall := float64(hit) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall@%d = %.3f after concurrent build, want >= 0.9", k, recall)
	}
}

// TestAddBatchThenAdd checks the batch path composes with later serial
// inserts (the incremental AddRelation path).
func TestAddBatchThenAdd(t *testing.T) {
	pts := randomPoints(600, 8, 5)
	ix := New(Config{M: 8, EfConstruction: 80, Seed: 5}, l2DistFn(pts), nil)
	ix.AddBatch(500, 6)
	for i := 500; i < 600; i++ {
		if got := ix.Add(); got != int32(i) {
			t.Fatalf("Add returned %d, want %d", got, i)
		}
	}
	st := ix.Stats()
	if st.Nodes != 600 {
		t.Fatalf("nodes = %d", st.Nodes)
	}
	if st.ReachableFraction != 1.0 {
		t.Fatalf("reachable fraction = %v after mixed build", st.ReachableFraction)
	}
}

// TestAddBatchEmptyAndOnEmptyIndex covers the entry-seeding edge cases.
func TestAddBatchEmptyAndOnEmptyIndex(t *testing.T) {
	pts := randomPoints(10, 4, 9)
	ix := New(Config{M: 4, EfConstruction: 20, Seed: 9}, l2DistFn(pts), nil)
	if first := ix.AddBatch(0, 4); first != 0 {
		t.Fatalf("empty batch first = %d", first)
	}
	if first := ix.AddBatch(10, 4); first != 0 {
		t.Fatalf("first = %d", first)
	}
	if ix.Len() != 10 {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.Stats().ReachableFraction != 1.0 {
		t.Fatal("small concurrent batch left unreachable nodes")
	}
}
