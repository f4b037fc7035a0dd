package vectordb

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"semdisco/internal/obs"
)

// linkedRows is how many of c's rows are linked into its HNSW graph.
func linkedRows(c *Collection) int { return c.index.Len() }

// insertMixed inserts vecs into c, the first few one Insert at a time and
// the rest in InsertBatch calls of at most batch rows.
func insertMixed(t *testing.T, c *Collection, vecs [][]float32, batch int) {
	t.Helper()
	singles := min(10, len(vecs))
	for _, v := range vecs[:singles] {
		if err := insertOne(c, v, 0); err != nil {
			t.Fatal(err)
		}
	}
	for lo := singles; lo < len(vecs); lo += batch {
		if err := c.InsertBatch(vecs[lo:min(lo+batch, len(vecs))], nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkRuleAtTheBound pins when an insert links rows into the graph. At
// M 4 and EfSearch 16 a default query scans up to ¾ × 16 × 8 = 96 points.
// Up to that size a raw collection links nothing and a PQ collection only
// the rows stored before training (linked under raw distances before
// training drops their vectors); the insert that takes the collection past
// it links every row. The graph then equals, edge for edge, a twin's whose
// EfSearch of 1 made nearly every insert link.
func TestLinkRuleAtTheBound(t *testing.T) {
	const bound = 96
	for _, tc := range []struct {
		name    string
		pq      *PQConfig
		atBound int
	}{
		{"raw", nil, 0},
		{"pq", &PQConfig{M: 4, K: 16, TrainSize: 40}, 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CollectionConfig{Dim: 16, M: 4, EfSearch: 16, Seed: 3, PQ: tc.pq, Workers: 1}
			c, err := NewCollection(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.EfSearch = 1
			twin, err := NewCollection(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			vecs := make([][]float32, bound+1)
			for i := range vecs {
				vecs[i] = randUnit(16, rng)
			}
			insertMixed(t, c, vecs[:bound], 25)
			insertMixed(t, twin, vecs[:bound], 25)
			if got := linkedRows(c); rowCount(c) != bound || got != tc.atBound {
				t.Fatalf("%d of %d rows linked at the bound, want %d", got, rowCount(c), tc.atBound)
			}
			if got := linkedRows(twin); got != bound {
				t.Fatalf("twin: %d of %d rows linked, want all", got, rowCount(twin))
			}
			if err := c.InsertBatch(vecs[bound:], nil); err != nil {
				t.Fatal(err)
			}
			if err := twin.InsertBatch(vecs[bound:], nil); err != nil {
				t.Fatal(err)
			}
			if got := linkedRows(c); got != bound+1 {
				t.Fatalf("%d of %d rows linked past the bound, want all", got, rowCount(c))
			}
			if a, b := graphHash(c), graphHash(twin); a != b {
				t.Fatalf("graph hash %#x, twin linked on insert %#x", a, b)
			}
		})
	}
}

// TestNarrowBeamWalkLinksFirst: a collection below the bound keeps its rows
// pending through default (scanning) queries; the first query whose beam
// walks links them all, and it answers exactly as a twin whose EfSearch of
// 1 linked every batch on insert, over the same graph.
func TestNarrowBeamWalkLinksFirst(t *testing.T) {
	const n, dim, k = 500, 16, 10
	for _, tc := range []struct {
		name    string
		pq      *PQConfig
		pending int
	}{
		{"raw", nil, n},
		{"pq", &PQConfig{M: 4, K: 16, TrainSize: 200}, n - 199},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := CollectionConfig{Dim: dim, Seed: 8, PQ: tc.pq, Workers: 1}
			c, err := NewCollection(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.EfSearch = 1
			twin, err := NewCollection(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(8))
			vecs := make([][]float32, n)
			tags := make([]int32, n)
			for i := range vecs {
				vecs[i] = randUnit(dim, rng)
				tags[i] = int32(i)
			}
			for lo := 0; lo < n; lo += 100 {
				if err := c.InsertBatch(vecs[lo:lo+100], tags[lo:lo+100]); err != nil {
					t.Fatal(err)
				}
				if err := twin.InsertBatch(vecs[lo:lo+100], tags[lo:lo+100]); err != nil {
					t.Fatal(err)
				}
			}
			if got := n - linkedRows(c); got != tc.pending {
				t.Fatalf("%d rows pending after insert, want %d", got, tc.pending)
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
				sameResults(t, "walk after linking vs twin linked on insert", got[i], want[i])
			}
			if a, b := graphHash(c), graphHash(twin); a != b {
				t.Fatalf("graph hash %#x, twin linked on insert %#x", a, b)
			}
		})
	}
}

// TestConcurrentLinkOnWalk runs, under -race, narrow-beam walks, default
// scans and inserts at once on a collection whose rows start pending, with
// PQ training landing among them: a walk re-checks under the read lock
// that every row is linked, so none may walk into an unlinked slot.
func TestConcurrentLinkOnWalk(t *testing.T) {
	const dim, k = 16, 5
	c, err := NewCollection(CollectionConfig{Dim: dim, Seed: 12, PQ: &PQConfig{M: 4, K: 16, TrainSize: 350}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	vecs := make([][]float32, 500)
	for i := range vecs {
		vecs[i] = randUnit(dim, rng)
	}
	if err := c.InsertBatch(vecs[:300], nil); err != nil {
		t.Fatal(err)
	}
	if linkedRows(c) != 0 {
		t.Fatalf("%d rows linked below the bound and before training", linkedRows(c))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 300; lo < len(vecs); lo += 20 {
			if err := c.InsertBatch(vecs[lo:lo+20], nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			ef := 0 // the default beam: a scan
			if w%2 == 0 {
				ef = 8 // covers ¾ × 8 × 32 = 192 points: a walk
			}
			for i := 0; i < 40; i++ {
				got, err := searchOne(c, randUnit(dim, r), k, ef, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != k {
					t.Errorf("ef %d: %d results, want %d", ef, len(got), k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if gs := c.GraphStats(); gs.Nodes != len(vecs) || gs.ReachableFraction != 1 {
		t.Fatalf("graph stats %+v after the concurrent run, want %d nodes all reachable", gs, len(vecs))
	}
}
