package hnsw

import (
	"math/rand"
	"testing"

	"semdisco/internal/vec"
)

func TestStatsEmpty(t *testing.T) {
	ix := New(Config{}, func(a, b int32) float32 { return 0 }, nil)
	gs := ix.Stats()
	if gs.Nodes != 0 || gs.EntryPoint != -1 || gs.ReachableFraction != 1 {
		t.Fatalf("empty stats=%+v", gs)
	}
}

func TestStatsConnectedGraph(t *testing.T) {
	const n, dim = 200, 16
	rng := rand.New(rand.NewSource(3))
	vecs := make([][]float32, 0, n)
	dist := func(a, b int32) float32 { return vec.L2Sq(vecs[a], vecs[b]) }
	ix := New(Config{M: 8, EfConstruction: 64, Seed: 3}, dist, nil)
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		vecs = append(vecs, v)
		ix.Add()
	}

	gs := ix.Stats()
	if gs.Nodes != n {
		t.Fatalf("nodes=%d want %d", gs.Nodes, n)
	}
	if gs.ReachableFraction != 1 {
		t.Fatalf("HNSW built incrementally must be fully reachable, got %v", gs.ReachableFraction)
	}
	if len(gs.Layers) != gs.MaxLevel+1 {
		t.Fatalf("layers=%d maxLevel=%d", len(gs.Layers), gs.MaxLevel)
	}
	l0 := gs.Layers[0]
	if l0.Nodes != n || l0.Edges == 0 {
		t.Fatalf("layer0=%+v", l0)
	}
	if l0.MaxDegree > 2*8 {
		t.Fatalf("layer0 max degree %d exceeds 2M=16", l0.MaxDegree)
	}
	if l0.AvgDegree <= 0 || l0.MinDegree < 0 {
		t.Fatalf("layer0 degrees=%+v", l0)
	}
	// Upper layers shrink monotonically in occupancy.
	for l := 1; l < len(gs.Layers); l++ {
		if gs.Layers[l].Nodes > gs.Layers[l-1].Nodes {
			t.Fatalf("layer %d has more nodes (%d) than layer %d (%d)",
				l, gs.Layers[l].Nodes, l-1, gs.Layers[l-1].Nodes)
		}
	}
}
