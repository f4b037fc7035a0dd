package hnsw

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"semdisco/internal/vec"
)

// store is a test harness pairing an Index with a vector slice.
type store struct {
	vecs [][]float32
	ix   *Index
}

func newStore(cfg Config) *store {
	s := &store{}
	s.ix = New(cfg, func(a, b int32) float32 {
		return vec.L2Sq(s.vecs[a], s.vecs[b])
	}, nil)
	return s
}

func (s *store) add(v []float32) int32 {
	s.vecs = append(s.vecs, v)
	return s.ix.Add()
}

func (s *store) search(q []float32, k, ef int, filter func(int32) bool) []Neighbor {
	return s.ix.Search(func(id int32) float32 { return vec.L2Sq(q, s.vecs[id]) }, k, ef, filter)
}

func randVecs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// bruteKNN returns the exact k nearest ids to q.
func bruteKNN(vecs [][]float32, q []float32, k int) []int32 {
	type pair struct {
		id int32
		d  float32
	}
	ps := make([]pair, len(vecs))
	for i, v := range vecs {
		ps[i] = pair{int32(i), vec.L2Sq(q, v)}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].d != ps[j].d {
			return ps[i].d < ps[j].d
		}
		return ps[i].id < ps[j].id
	})
	if len(ps) > k {
		ps = ps[:k]
	}
	out := make([]int32, len(ps))
	for i, p := range ps {
		out[i] = p.id
	}
	return out
}

func TestEmptySearch(t *testing.T) {
	s := newStore(Config{Seed: 1})
	if got := s.search([]float32{1, 2}, 5, 50, nil); got != nil {
		t.Fatalf("empty index returned %v", got)
	}
}

func TestSingleElement(t *testing.T) {
	s := newStore(Config{Seed: 1})
	s.add([]float32{1, 2, 3})
	got := s.search([]float32{1, 2, 3}, 3, 10, nil)
	if len(got) != 1 || got[0].ID != 0 || got[0].Dist != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestExactMatchFound(t *testing.T) {
	s := newStore(Config{M: 8, EfConstruction: 100, Seed: 2})
	vs := randVecs(500, 16, 2)
	for _, v := range vs {
		s.add(v)
	}
	for probe := 0; probe < 20; probe++ {
		q := vs[probe*17]
		got := s.search(q, 1, 64, nil)
		if len(got) != 1 || got[0].ID != int32(probe*17) {
			t.Fatalf("probe %d: got %v", probe, got)
		}
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	s := newStore(Config{M: 16, EfConstruction: 200, Seed: 3})
	vs := randVecs(2000, 24, 3)
	for _, v := range vs {
		s.add(v)
	}
	queries := randVecs(50, 24, 99)
	const k = 10
	hits, total := 0, 0
	for _, q := range queries {
		truth := bruteKNN(vs, q, k)
		truthSet := make(map[int32]struct{}, k)
		for _, id := range truth {
			truthSet[id] = struct{}{}
		}
		got := s.search(q, k, 128, nil)
		for _, n := range got {
			if _, ok := truthSet[n.ID]; ok {
				hits++
			}
		}
		total += k
	}
	recall := float64(hits) / float64(total)
	if recall < 0.9 {
		t.Fatalf("recall@10 = %.3f, want >= 0.9", recall)
	}
}

func TestHigherEfImprovesRecall(t *testing.T) {
	s := newStore(Config{M: 6, EfConstruction: 60, Seed: 4})
	vs := randVecs(3000, 32, 4)
	for _, v := range vs {
		s.add(v)
	}
	queries := randVecs(30, 32, 77)
	const k = 10
	recallAt := func(ef int) float64 {
		hits := 0
		for _, q := range queries {
			truth := bruteKNN(vs, q, k)
			set := make(map[int32]struct{})
			for _, id := range truth {
				set[id] = struct{}{}
			}
			for _, n := range s.search(q, k, ef, nil) {
				if _, ok := set[n.ID]; ok {
					hits++
				}
			}
		}
		return float64(hits) / float64(len(queries)*k)
	}
	low := recallAt(k)
	high := recallAt(256)
	if high < low {
		t.Fatalf("recall must not degrade with ef: ef=k %.3f, ef=256 %.3f", low, high)
	}
	if high < 0.85 {
		t.Fatalf("recall@ef=256 = %.3f too low", high)
	}
}

func TestResultsSortedAscending(t *testing.T) {
	s := newStore(Config{Seed: 5})
	for _, v := range randVecs(300, 8, 5) {
		s.add(v)
	}
	got := s.search(randVecs(1, 8, 6)[0], 20, 64, nil)
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("results not sorted: %v", got)
		}
	}
}

func TestFilter(t *testing.T) {
	s := newStore(Config{Seed: 6})
	vs := randVecs(500, 8, 6)
	for _, v := range vs {
		s.add(v)
	}
	even := func(id int32) bool { return id%2 == 0 }
	got := s.search(vs[11], 10, 128, even)
	if len(got) == 0 {
		t.Fatal("filtered search returned nothing")
	}
	for _, n := range got {
		if n.ID%2 != 0 {
			t.Fatalf("filter violated: id %d", n.ID)
		}
	}
}

func TestFilterEverythingRejected(t *testing.T) {
	s := newStore(Config{Seed: 7})
	for _, v := range randVecs(100, 8, 7) {
		s.add(v)
	}
	got := s.search([]float32{0, 0, 0, 0, 0, 0, 0, 0}, 5, 50, func(int32) bool { return false })
	if len(got) != 0 {
		t.Fatalf("expected no results, got %v", got)
	}
}

func TestGraphDegreeBounds(t *testing.T) {
	cfg := Config{M: 8, EfConstruction: 100, Seed: 8}
	s := newStore(cfg)
	for _, v := range randVecs(1000, 16, 8) {
		s.add(v)
	}
	layer0 := s.ix.Graph(0)
	if len(layer0) != 1000 {
		t.Fatalf("layer 0 has %d nodes", len(layer0))
	}
	for id, nbs := range layer0 {
		if len(nbs) > 2*cfg.M {
			t.Fatalf("node %d degree %d exceeds 2M=%d", id, len(nbs), 2*cfg.M)
		}
		seen := make(map[int32]struct{})
		for _, n := range nbs {
			if n == id {
				t.Fatalf("self-loop at %d", id)
			}
			if _, dup := seen[n]; dup {
				t.Fatalf("duplicate edge %d->%d", id, n)
			}
			seen[n] = struct{}{}
		}
	}
	for l := 1; l <= s.ix.MaxLevel(); l++ {
		for id, nbs := range s.ix.Graph(l) {
			if len(nbs) > 2*cfg.M {
				t.Fatalf("layer %d node %d degree %d", l, id, len(nbs))
			}
		}
	}
}

func TestLayer0Connected(t *testing.T) {
	s := newStore(Config{M: 8, EfConstruction: 100, Seed: 9})
	n := 500
	for _, v := range randVecs(n, 16, 9) {
		s.add(v)
	}
	adj := s.ix.Graph(0)
	// BFS over the undirected closure of the adjacency.
	undirected := make(map[int32][]int32)
	for id, nbs := range adj {
		for _, nb := range nbs {
			undirected[id] = append(undirected[id], nb)
			undirected[nb] = append(undirected[nb], id)
		}
	}
	seen := map[int32]struct{}{0: {}}
	queue := []int32{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range undirected[cur] {
			if _, ok := seen[nb]; !ok {
				seen[nb] = struct{}{}
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) < n*95/100 {
		t.Fatalf("layer-0 reachable component %d/%d", len(seen), n)
	}
}

func TestConcurrentSearch(t *testing.T) {
	s := newStore(Config{Seed: 10})
	vs := randVecs(400, 8, 10)
	for _, v := range vs {
		s.add(v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := s.search(vs[(w*50+i)%len(vs)], 5, 32, nil)
				if len(got) == 0 {
					t.Error("concurrent search returned nothing")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestDeterministicBuild(t *testing.T) {
	build := func() map[int32][]int32 {
		s := newStore(Config{M: 8, EfConstruction: 50, Seed: 42})
		for _, v := range randVecs(200, 8, 11) {
			s.add(v)
		}
		return s.ix.Graph(0)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("node counts differ")
	}
	for id, nbs := range a {
		other := b[id]
		if len(nbs) != len(other) {
			t.Fatalf("node %d neighbor counts differ", id)
		}
		for i := range nbs {
			if nbs[i] != other[i] {
				t.Fatalf("node %d differs: %v vs %v", id, nbs, other)
			}
		}
	}
}

func TestKZero(t *testing.T) {
	s := newStore(Config{Seed: 12})
	s.add([]float32{1})
	if got := s.search([]float32{1}, 0, 10, nil); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	s := newStore(Config{M: 16, EfConstruction: 100, Seed: 13})
	vs := randVecs(10000, 64, 13)
	for _, v := range vs {
		s.add(v)
	}
	queries := randVecs(100, 64, 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.search(queries[i%len(queries)], 10, 64, nil)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := newStore(Config{M: 16, EfConstruction: 100, Seed: 15})
	vs := randVecs(b.N+1, 64, 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.add(vs[i])
	}
}
