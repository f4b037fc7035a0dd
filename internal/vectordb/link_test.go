package vectordb

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"semdisco/internal/obs"
)

// linkedRows is how many of c's rows are linked into its HNSW graph.
func linkedRows(c *Collection) int { return c.index.Len() }

// TestLinkRuleAtTheBound pins when Build links rows into the graph. At M 4
// and EfSearch 16 a default query scans up to ¾ × 16 × 8 = 96 points. Up
// to that size neither a raw nor a PQ collection links a row (the PQ one
// keeps the raw vectors of the rows before the training set's last one
// until the link); one row more and Build links every row. The graph the first GraphStats links then equals, edge
// for edge, a twin's whose EfSearch of 1 made Build link every row.
func TestLinkRuleAtTheBound(t *testing.T) {
	const bound = 96
	for _, tc := range []struct {
		name    string
		pq      *PQConfig
		atBound int
	}{
		{"raw", nil, 0},
		{"pq", &PQConfig{M: 4, K: 16, TrainSize: 40}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CollectionConfig{Dim: 16, M: 4, EfSearch: 16, Seed: 3, PQ: tc.pq, Workers: 1}
			vecs, _ := randUnits(bound+1, 16, rand.New(rand.NewSource(3)))
			c := build(t, cfg, vecs[:bound], nil)
			if got := linkedRows(c); got != tc.atBound {
				t.Fatalf("%d of %d rows linked at the bound, want %d", got, rowCount(c), tc.atBound)
			}
			if past := build(t, cfg, vecs, nil); linkedRows(past) != bound+1 {
				t.Fatalf("%d of %d rows linked past the bound, want all", linkedRows(past), rowCount(past))
			}
			cfg.EfSearch = 1
			twin := build(t, cfg, vecs[:bound], nil)
			if got := linkedRows(twin); got != bound {
				t.Fatalf("twin: %d of %d rows linked, want all", got, rowCount(twin))
			}
			if a, b := graphHash(c), graphHash(twin); a != b {
				t.Fatalf("graph hash %#x, twin linked in Build %#x", a, b)
			}
		})
	}
}

// TestNarrowBeamWalkLinksFirst: a collection below the bound keeps its rows
// pending through default (scanning) queries; the first query whose beam
// walks links them all, and it answers exactly as a twin whose EfSearch of
// 1 made Build link every row, over the same graph.
func TestNarrowBeamWalkLinksFirst(t *testing.T) {
	const n, dim, k = 500, 16, 10
	for _, tc := range []struct {
		name    string
		pq      *PQConfig
		pending int
	}{
		{"raw", nil, n},
		{"pq", &PQConfig{M: 4, K: 16, TrainSize: 200}, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			vecs, tags := randUnits(n, dim, rng)
			cfg := CollectionConfig{Dim: dim, Seed: 8, PQ: tc.pq, Workers: 1}
			c := build(t, cfg, vecs, tags)
			cfg.EfSearch = 1
			twin := build(t, cfg, vecs, tags)
			if got := n - linkedRows(c); got != tc.pending {
				t.Fatalf("%d rows pending after Build, want %d", got, tc.pending)
			}
			queries := make([][]float32, 8)
			for i := range queries {
				queries[i] = randUnit(dim, rng)
			}
			prepared := Prepare(queries)
			ks := make([]int, len(queries))
			for i := range ks {
				ks[i] = k
			}
			ctx := context.Background()
			if _, err := c.SearchBatch(ctx, prepared, ks, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
			if got := n - linkedRows(c); got != tc.pending {
				t.Fatalf("%d rows pending after a default (scanning) block, want %d", got, tc.pending)
			}
			// A beam of 20 covers ¾ × 20 × 32 = 480 points, fewer than n:
			// the block walks.
			efs := make([]int, len(queries))
			costs := make([]*obs.Cost, len(queries))
			for i := range efs {
				efs[i], costs[i] = 20, &obs.Cost{}
			}
			got, err := c.SearchBatch(ctx, prepared, ks, efs, nil, costs)
			if err != nil {
				t.Fatal(err)
			}
			if linkedRows(c) != n {
				t.Fatalf("%d of %d rows linked after a walk", linkedRows(c), n)
			}
			want, err := twin.SearchBatch(ctx, prepared, ks, efs, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if rep := costs[i].Report(); rep.HNSWHops == 0 || rep.ValuesScanned != 0 {
					t.Fatalf("query %d: cost %+v, want a walk", i, rep)
				}
				sameResults(t, "walk after linking vs twin linked in Build", got[i], want[i])
			}
			if a, b := graphHash(c), graphHash(twin); a != b {
				t.Fatalf("graph hash %#x, twin linked in Build %#x", a, b)
			}
		})
	}
}

// TestConcurrentLinkOnWalk runs, under -race, narrow-beam first walks,
// default scans and GraphStats at once on a fresh collection below the
// bound, whose rows are all pending: every graph reader
// waits for the one link, so none may walk into an unlinked slot, and
// every answer equals a serially used twin's.
func TestConcurrentLinkOnWalk(t *testing.T) {
	const dim, k, train = 16, 5, 350
	rng := rand.New(rand.NewSource(12))
	vecs, tags := randUnits(500, dim, rng)
	queries := make([][]float32, 40)
	for i := range queries {
		queries[i] = randUnit(dim, rng)
	}
	cfg := CollectionConfig{Dim: dim, Seed: 12, PQ: &PQConfig{M: 4, K: 16, TrainSize: train}}
	// ef 8 covers ¾ × 8 × 32 = 192 points: a walk; ef 0 is the default
	// beam: a scan.
	efs := []int{8, 0}
	ref := build(t, cfg, vecs, tags)
	wantStats := ref.GraphStats()
	want := make([][][]Result, len(efs))
	for e, ef := range efs {
		want[e] = make([][]Result, len(queries))
		for i, q := range queries {
			var err error
			if want[e][i], err = searchOne(ref, q, k, ef, nil); err != nil {
				t.Fatal(err)
			}
		}
	}

	c := build(t, cfg, vecs, tags)
	if linkedRows(c) != 0 {
		t.Fatalf("%d rows linked below the bound, want none", linkedRows(c))
	}
	// All readers start at once, so several reach the link together.
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			if w%3 == 2 {
				if gs := c.GraphStats(); !reflect.DeepEqual(gs, wantStats) {
					t.Errorf("graph stats %+v under concurrency, %+v alone", gs, wantStats)
				}
				return
			}
			for i, q := range queries {
				got, err := searchOne(c, q, k, efs[w%3], nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[w%3][i]) {
					t.Errorf("ef %d query %d: %+v under concurrency, %+v serially", efs[w%3], i, got, want[w%3][i])
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if a, b := graphHash(c), graphHash(ref); a != b {
		t.Fatalf("graph hash %#x after the concurrent run, %#x serially", a, b)
	}
}
