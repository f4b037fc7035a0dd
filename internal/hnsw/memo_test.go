package hnsw

import (
	"fmt"
	"slices"
	"testing"

	"semdisco/internal/vec"
)

// switchingDist is a construction distance that changes between batches,
// as vectordb's does when PQ training swaps raw vectors for codes: L2 over
// the points, then over a coarsened copy of them. Both are symmetric bit
// for bit. A memo that outlived its call would answer the second batch's
// pairs with the first's distances.
type switchingDist struct {
	raw, coarse [][]float32
	coded       bool
}

func newSwitchingDist(n int) *switchingDist {
	s := &switchingDist{raw: randomPoints(n, 8, 31)}
	for _, p := range s.raw {
		c := make([]float32, len(p))
		for i, x := range p {
			c[i] = float32(int(x*4)) / 4
		}
		s.coarse = append(s.coarse, c)
	}
	return s
}

func (s *switchingDist) dist(a, b int32) float32 {
	if s.coded {
		return vec.L2Sq(s.coarse[a], s.coarse[b])
	}
	return vec.L2Sq(s.raw[a], s.raw[b])
}

// roundRobinBatch inserts count new items through `workers` builders of one
// concurrent batch taken in turn on the calling goroutine: AddBatch's
// concurrent path — per-node locks, the self filter, one memo per builder
// — in an interleaving the test fixes, so two builds can be compared. With
// memo false the builders measure every pair afresh. It returns the memos'
// hits and evictions.
func roundRobinBatch(ix *Index, count, workers int, memo bool) (hits, evictions int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	first := int32(len(ix.nodes))
	levels, start, batch := ix.beginBatch(count)
	bs := make([]*builder, workers)
	for w := range bs {
		bs[w] = ix.newBuilder(batch)
		if memo {
			bs[w].memo = newPairMemo(count, len(ix.nodes), ix.dist)
		}
	}
	for i := start; i < count; i++ {
		bs[i%workers].insert(first+int32(i), levels[i])
	}
	for _, b := range bs {
		if b.memo != nil {
			hits += b.memo.hits
			evictions += b.memo.evictions
		}
	}
	return hits, evictions
}

func sameGraph(t *testing.T, what string, got, want *Index) {
	t.Helper()
	if got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("%s: max level %d, want %d", what, got.MaxLevel(), want.MaxLevel())
	}
	for l := 0; l <= want.MaxLevel(); l++ {
		g, w := got.Graph(l), want.Graph(l)
		if len(g) != len(w) {
			t.Fatalf("%s: layer %d has %d nodes, want %d", what, l, len(g), len(w))
		}
		for id, nbs := range w {
			if !slices.Equal(g[id], nbs) {
				t.Fatalf("%s: layer %d node %d: %v, want %v", what, l, id, g[id], nbs)
			}
		}
	}
}

// TestPairMemoNeverChangesGraph builds across two batches with the
// distance switched in between and holds every layer's adjacency to a build
// that measures every pair afresh: at one worker through AddBatch against
// an Add loop, and at 2 and 4 workers through a fixed interleaving of the
// concurrent path's builders. It does so with the memo shrunk to 8 slots,
// so that pairs collide and evict each other constantly, and at full size,
// where a memo that outlived its call would still hold the first batch's
// pairs. Then it runs the real concurrent AddBatch at 2 and 4 workers over
// the same switch, for the race detector and the graph invariants.
func TestPairMemoNeverChangesGraph(t *testing.T) {
	defer func(b int) { memoMaxBits = b }(memoMaxBits)
	const n, firstBatch = 600, 250
	cfg := Config{M: 6, EfConstruction: 40, Seed: 9}
	ref := newSwitchingDist(n)
	want := New(cfg, ref.dist, nil)
	for i := 0; i < n; i++ {
		if i == firstBatch {
			ref.coded = true
		}
		want.Add()
	}
	for _, bits := range []int{3, 17} {
		memoMaxBits = bits
		d := newSwitchingDist(n)
		got := New(cfg, d.dist, nil)
		got.AddBatch(firstBatch, 1)
		d.coded = true
		got.AddBatch(n-firstBatch, 1)
		sameGraph(t, fmt.Sprintf("%d-bit memo, workers 1", bits), got, want)

		for _, workers := range []int{2, 4} {
			what := fmt.Sprintf("%d-bit memo, workers %d", bits, workers)
			build := func(memo bool) (*Index, int, int) {
				d := newSwitchingDist(n)
				ix := New(cfg, d.dist, nil)
				h1, e1 := roundRobinBatch(ix, firstBatch, workers, memo)
				d.coded = true
				h2, e2 := roundRobinBatch(ix, n-firstBatch, workers, memo)
				return ix, h1 + h2, e1 + e2
			}
			want, _, _ := build(false)
			got, hits, evictions := build(true)
			if hits == 0 || bits == 3 && evictions == 0 {
				t.Fatalf("%s: %d hits, %d evictions: the memo was not exercised", what, hits, evictions)
			}
			sameGraph(t, what+", round robin", got, want)

			d := newSwitchingDist(n)
			ix := New(cfg, d.dist, nil)
			ix.AddBatch(firstBatch, workers)
			d.coded = true
			ix.AddBatch(n-firstBatch, workers)
			checkInvariants(t, what+", concurrent", ix, cfg.M)
		}
	}
}

// checkInvariants fails on a self loop, a duplicate edge, an id out of
// range or a list over its bound on any layer.
func checkInvariants(t *testing.T, what string, ix *Index, m int) {
	t.Helper()
	n := int32(ix.Len())
	for l := 0; l <= ix.MaxLevel(); l++ {
		bound := m
		if l == 0 {
			bound = 2 * m
		}
		for id, nbs := range ix.Graph(l) {
			if len(nbs) > bound {
				t.Fatalf("%s: layer %d node %d has %d neighbours, bound %d", what, l, id, len(nbs), bound)
			}
			seen := make(map[int32]bool)
			for _, nb := range nbs {
				if nb == id || nb < 0 || nb >= n || seen[nb] {
					t.Fatalf("%s: layer %d node %d: bad list %v", what, l, id, nbs)
				}
				seen[nb] = true
			}
		}
	}
}

// TestPairMemoIDWidth pins where the memo gives up: a slot's tag holds the
// key bits its index does not, in 31 bits, which at 2^17 slots fits ids
// below 2^24. A wider index builds without one.
func TestPairMemoIDWidth(t *testing.T) {
	dist := func(a, b int32) float32 { return float32(a + b) }
	if m := newPairMemo(4096, 1<<24, dist); m == nil || len(m.slots) != 1<<memoMaxBits {
		t.Fatal("2^24 nodes: want a full-size memo")
	}
	if m := newPairMemo(4096, 1<<24+1, dist); m != nil {
		t.Fatalf("2^24+1 nodes: want no memo, got %d slots", len(m.slots))
	}
	m := newPairMemo(4096, 1<<24, dist)
	for _, p := range [][2]int32{{1<<24 - 1, 1<<24 - 2}, {0, 1<<24 - 1}, {5, 7}} {
		for rep := 0; rep < 2; rep++ {
			if got := m.get(p[1], p[0]); got != dist(p[0], p[1]) {
				t.Fatalf("pair %v: %v, want %v", p, got, dist(p[0], p[1]))
			}
		}
	}
	if m.hits != 3 {
		t.Fatalf("%d hits, want 3: every pair's second lookup", m.hits)
	}
}
