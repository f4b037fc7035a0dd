package vectordb

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"semdisco/internal/vec"
)

func randUnit(dim int, rng *rand.Rand) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32(rng.NormFloat64())
	}
	return vec.Normalize(v)
}

// insertOne appends one row with its tag: an InsertBatch of one.
func insertOne(c *Collection, v []float32, tag int32) error {
	return c.InsertBatch([][]float32{v}, []int32{tag})
}

// rowCount is the number of rows c holds.
func rowCount(c *Collection) int { return c.Stats().Points }

// searchOne answers one query under plan planAuto: a SearchBatch block of
// one. ef overrides the collection's default beam width when positive.
func searchOne(c *Collection, q []float32, k, ef int, filter Filter) ([]Result, error) {
	return searchPlan(c, q, k, ef, filter, planAuto)
}

// walkSearch answers one query by walking the graph, whatever the
// collection's size. The tests of the graph itself — its recall, filtered
// routing, concurrent use — call it: their
// collections are small enough that searchOne would scan them instead.
func walkSearch(c *Collection, q []float32, k, ef int, filter Filter) ([]Result, error) {
	return searchPlan(c, q, k, ef, filter, planWalk)
}

func searchPlan(c *Collection, q []float32, k, ef int, filter Filter, p plan) ([]Result, error) {
	out, err := c.searchBatch(context.Background(), Prepare([][]float32{q}), []int{k}, []int{ef}, filter, nil, p)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func TestCreateAndLookup(t *testing.T) {
	for _, bad := range []CollectionConfig{
		{},
		{Dim: 4, M: 1},
		{Dim: 4, M: -2},
		{Dim: 4, EfSearch: -1},
		{Dim: 4, PQ: &PQConfig{K: -1}},
	} {
		if _, err := NewCollection(bad); err == nil {
			t.Errorf("config %+v must fail", bad)
		}
	}
	c, err := NewCollection(CollectionConfig{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := insertOne(c, []float32{0, 2, 0, 0}, -5); err != nil {
		t.Fatal(err)
	}
	if err := insertOne(c, []float32{1, 0, 0, 0}, 7); err != nil {
		t.Fatal(err)
	}
	if rowCount(c) != 2 {
		t.Fatalf("Len=%d want 2", rowCount(c))
	}
	got, err := searchOne(c, []float32{0, 1, 0, 0}, 1, 0, nil)
	if err != nil || len(got) != 1 || got[0].Tag != -5 || got[0].Score != 1 {
		t.Fatalf("hit %+v, %v: want tag -5 at score 1", got, err)
	}
}

func TestInsertSearchCosine(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 16, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	var vectors [][]float32
	for i := 0; i < 300; i++ {
		v := randUnit(16, rng)
		vectors = append(vectors, v)
		if err := insertOne(c, v, int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := searchOne(c, vectors[42], 1, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Tag != 42 {
		t.Fatalf("got %+v", got)
	}
	if got[0].Score < 0.999 {
		t.Fatalf("self-similarity %v", got[0].Score)
	}
}

func TestDimValidation(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 4})
	if err := insertOne(c, []float32{1, 2}, 0); err == nil {
		t.Fatal("wrong insert dim must fail")
	}
	insertOne(c, []float32{1, 0, 0, 0}, 0)
	if _, err := searchOne(c, []float32{1}, 1, 10, nil); err == nil {
		t.Fatal("wrong query dim must fail")
	}
	if _, err := c.SearchExact([]float32{1}, 1, nil); err == nil {
		t.Fatal("wrong exact query dim must fail")
	}
}

func TestCosineNormalizesInput(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 2})
	insertOne(c, []float32{10, 0}, 0) // not unit norm
	got, _ := searchOne(c, []float32{3, 0}, 1, 10, nil)
	if got[0].Score < 0.999 {
		t.Fatalf("score %v, normalization missing", got[0].Score)
	}
}

func TestSearchExactMatchesBruteForce(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 8, Seed: 2})
	rng := rand.New(rand.NewSource(2))
	var vecs [][]float32
	for i := 0; i < 200; i++ {
		v := randUnit(8, rng)
		vecs = append(vecs, v)
		insertOne(c, v, int32(i))
	}
	q := randUnit(8, rng)
	got, _ := c.SearchExact(q, 5, nil)
	if len(got) != 5 {
		t.Fatalf("len=%d", len(got))
	}
	// Verify descending scores and that the top-1 is the true argmax.
	bestID, bestScore := 0, float32(-2)
	for i, v := range vecs {
		if s := vec.Dot(q, v); s > bestScore {
			bestID, bestScore = i, s
		}
	}
	if got[0].Tag != int32(bestID) {
		t.Fatalf("exact top-1 %d, brute force %d", got[0].Tag, bestID)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("scores not descending")
		}
	}
}

func TestFilteredSearch(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 8, Seed: 3})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		insertOne(c, randUnit(8, rng), int32(i))
	}
	q := randUnit(8, rng)
	odd := func(tag int32) bool { return tag%2 == 1 }
	for name, search := range map[string]func(q []float32, k, ef int, filter Filter) ([]Result, error){
		"Search": func(q []float32, k, ef int, filter Filter) ([]Result, error) { return searchOne(c, q, k, ef, filter) },
		"walk":   func(q []float32, k, ef int, filter Filter) ([]Result, error) { return walkSearch(c, q, k, ef, filter) },
	} {
		got, _ := search(q, 10, 128, odd)
		if len(got) == 0 {
			t.Fatalf("%s: no results", name)
		}
		for _, r := range got {
			if r.Tag%2 != 1 {
				t.Fatalf("%s: filter leaked: %+v", name, r)
			}
		}
	}
	got2, _ := c.SearchExact(q, 10, func(tag int32) bool { return tag%2 == 0 })
	if len(got2) != 10 {
		t.Fatalf("exact filtered search: %d results", len(got2))
	}
	for _, r := range got2 {
		if r.Tag%2 != 0 {
			t.Fatalf("exact filter leaked: %+v", r)
		}
	}
}

func TestPQCompression(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{
		Dim: 32, Seed: 5,
		PQ: &PQConfig{M: 4, K: 16, TrainSize: 100},
	})
	rng := rand.New(rand.NewSource(5))
	var vecs [][]float32
	for i := 0; i < 400; i++ {
		v := randUnit(32, rng)
		vecs = append(vecs, v)
		insertOne(c, v, int32(i))
	}
	st := c.Stats()
	if !st.Compressed {
		t.Fatal("PQ not trained")
	}
	if st.VectorBytes >= int64(400*32*4) {
		t.Fatalf("no compression: %d bytes", st.VectorBytes)
	}
	// Recall sanity: self-queries should still surface the right region.
	hits := 0
	for i := 0; i < 50; i++ {
		got, err := walkSearch(c, vecs[i], 5, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.Tag == int32(i) {
				hits++
				break
			}
		}
	}
	if hits < 35 {
		t.Fatalf("PQ recall too low: %d/50 self-hits", hits)
	}
}

func TestConcurrentInsertAndSearch(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 8, Seed: 10})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		insertOne(c, randUnit(8, rng), 0)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 100; i++ {
			insertOne(c, randUnit(8, r), 0)
		}
		close(stop)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Half the readers walk the graph an insert is
				// growing; the other half scan, as SearchBatch does at
				// this size.
				search := searchOne
				if seed%2 == 0 {
					search = walkSearch
				}
				if _, err := search(c, randUnit(8, r), 3, 32, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(20 + w))
	}
	wg.Wait()
	if rowCount(c) != 200 {
		t.Fatalf("Len=%d want 200", rowCount(c))
	}
}

func BenchmarkSearchCosine10k(b *testing.B) {
	c, _ := NewCollection(CollectionConfig{Dim: 64, Seed: 12})
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10000; i++ {
		insertOne(c, randUnit(64, rng), 0)
	}
	queries := make([][]float32, 64)
	for i := range queries {
		queries[i] = randUnit(64, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := searchOne(c, queries[i%len(queries)], 10, 64, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInsertBatchSerialMatchesInsertLoop pins the Workers <= 1 determinism
// contract for batch inserts, across the PQ training boundary: same tags,
// same codes, same graph as the equivalent Insert loop.
func TestInsertBatchSerialMatchesInsertLoop(t *testing.T) {
	const (
		dim = 16
		n   = 120
	)
	cfg := CollectionConfig{
		Dim: dim, M: 8, EfConstruction: 40, Seed: 9,
		PQ: &PQConfig{M: 4, K: 16, TrainSize: 64},
	}
	rng := rand.New(rand.NewSource(9))
	vecs := make([][]float32, n)
	tags := make([]int32, n)
	for i := range vecs {
		vecs[i] = randUnit(dim, rng)
		tags[i] = int32(i)
	}

	cs, _ := NewCollection(cfg)
	for i := range vecs {
		if err := insertOne(cs, vecs[i], tags[i]); err != nil {
			t.Fatal(err)
		}
	}
	cb, _ := NewCollection(cfg)
	if err := cb.InsertBatch(vecs, tags); err != nil {
		t.Fatal(err)
	}
	if rowCount(cb) != n {
		t.Fatalf("got %d rows", rowCount(cb))
	}
	for slot := range tags {
		if cs.tags[slot] != tags[slot] || cb.tags[slot] != tags[slot] {
			t.Fatalf("tags[%d] = %d (loop), %d (batch), want %d", slot, cs.tags[slot], cb.tags[slot], tags[slot])
		}
	}
	if cs.quantizer == nil || cb.quantizer == nil {
		t.Fatal("PQ must have trained in both paths")
	}
	for slot := range cs.codes {
		if !bytes.Equal(cs.codes[slot], cb.codes[slot]) {
			t.Fatalf("codes[%d] diverged", slot)
		}
	}
	cs.GraphStats() // link the pending rows before reading the graphs
	cb.GraphStats()
	for l := 0; l <= cs.index.MaxLevel(); l++ {
		ga, gb := cs.index.Graph(l), cb.index.Graph(l)
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
	// Both must answer searches identically.
	q := randUnit(dim, rng)
	ra, _ := searchOne(cs, q, 5, 0, nil)
	rb, _ := searchOne(cb, q, 5, 0, nil)
	if len(ra) != len(rb) {
		t.Fatalf("result counts %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Tag != rb[i].Tag || math.Float32bits(ra[i].Score) != math.Float32bits(rb[i].Score) {
			t.Fatalf("result %d diverged: %v vs %v", i, ra[i], rb[i])
		}
	}
}

// TestInsertBatchParallel exercises the concurrent construction path end to
// end: graph intact (fully reachable), PQ trained, searches work, and the
// codes match the serial run (encode is worker-count-invariant).
func TestInsertBatchParallel(t *testing.T) {
	const (
		dim = 16
		n   = 400
	)
	cfg := CollectionConfig{
		Dim: dim, M: 8, EfConstruction: 60, Seed: 4,
		PQ:      &PQConfig{M: 4, K: 16, TrainSize: 128},
		Workers: 4,
	}
	rng := rand.New(rand.NewSource(4))
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = randUnit(dim, rng)
	}
	c, _ := NewCollection(cfg)
	if err := c.InsertBatch(vecs, nil); err != nil {
		t.Fatal(err)
	}
	if rowCount(c) != n {
		t.Fatalf("len=%d", rowCount(c))
	}
	st := c.GraphStats()
	if st.ReachableFraction != 1.0 {
		t.Fatalf("reachable fraction %v after parallel batch insert", st.ReachableFraction)
	}
	if c.quantizer == nil {
		t.Fatal("PQ must have trained")
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	sc, _ := NewCollection(serialCfg)
	if err := sc.InsertBatch(vecs, nil); err != nil {
		t.Fatal(err)
	}
	for slot := range sc.codes {
		if !bytes.Equal(sc.codes[slot], c.codes[slot]) {
			t.Fatalf("codes[%d] depend on worker count", slot)
		}
	}
	res, err := searchOne(c, vecs[17], 3, 0, nil)
	if err != nil || len(res) == 0 {
		t.Fatalf("search after parallel build: res=%v err=%v", res, err)
	}
}

// TestInsertBatchValidation covers the error paths.
func TestInsertBatchValidation(t *testing.T) {
	c, _ := NewCollection(CollectionConfig{Dim: 4})
	if err := c.InsertBatch([][]float32{{1, 2}}, nil); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if err := c.InsertBatch([][]float32{{1, 2, 3, 4}}, []int32{1, 2}); err == nil {
		t.Fatal("tag count mismatch must fail")
	}
	if err := c.InsertBatch(nil, nil); err != nil || rowCount(c) != 0 {
		t.Fatalf("empty batch: len %d, %v", rowCount(c), err)
	}
	// Batch then single insert must compose.
	if err := c.InsertBatch([][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := insertOne(c, []float32{0, 0, 1, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if rowCount(c) != 3 {
		t.Fatalf("len=%d", rowCount(c))
	}
}
