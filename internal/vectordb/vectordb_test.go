package vectordb

import (
	"context"
	"math/rand"
	"reflect"
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

// build is Build without a registry; it fails the test on an error.
func build(tb testing.TB, cfg CollectionConfig, vecs [][]float32, tags []int32) *Collection {
	tb.Helper()
	c, err := Build(cfg, vecs, tags, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// randUnits draws n random unit vectors of dim, and tags each with its index.
func randUnits(n, dim int, rng *rand.Rand) ([][]float32, []int32) {
	vecs := make([][]float32, n)
	tags := make([]int32, n)
	for i := range vecs {
		vecs[i] = randUnit(dim, rng)
		tags[i] = int32(i)
	}
	return vecs, tags
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
	c := build(t, CollectionConfig{Dim: 4}, [][]float32{{0, 2, 0, 0}, {1, 0, 0, 0}}, []int32{-5, 7})
	if rowCount(c) != 2 {
		t.Fatalf("Len=%d want 2", rowCount(c))
	}
	got, err := searchOne(c, []float32{0, 1, 0, 0}, 1, 0, nil)
	if err != nil || len(got) != 1 || got[0].Tag != -5 || got[0].Score != 1 {
		t.Fatalf("hit %+v, %v: want tag -5 at score 1", got, err)
	}
}

func TestInsertSearchCosine(t *testing.T) {
	vectors, tags := randUnits(300, 16, rand.New(rand.NewSource(1)))
	c := build(t, CollectionConfig{Dim: 16, Seed: 1}, vectors, tags)
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
	c := build(t, CollectionConfig{Dim: 4}, [][]float32{{1, 0, 0, 0}}, nil)
	if _, err := searchOne(c, []float32{1}, 1, 10, nil); err == nil {
		t.Fatal("wrong query dim must fail")
	}
	if _, err := c.SearchExact([]float32{1}, 1, nil); err == nil {
		t.Fatal("wrong exact query dim must fail")
	}
}

func TestCosineNormalizesInput(t *testing.T) {
	c := build(t, CollectionConfig{Dim: 2}, [][]float32{{10, 0}}, nil) // not unit norm
	got, _ := searchOne(c, []float32{3, 0}, 1, 10, nil)
	if got[0].Score < 0.999 {
		t.Fatalf("score %v, normalization missing", got[0].Score)
	}
}

func TestSearchExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vecs, tags := randUnits(200, 8, rng)
	c := build(t, CollectionConfig{Dim: 8, Seed: 2}, vecs, tags)
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
	rng := rand.New(rand.NewSource(3))
	vecs, tags := randUnits(200, 8, rng)
	c := build(t, CollectionConfig{Dim: 8, Seed: 3}, vecs, tags)
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

// TestPQCompression: a collection built from fewer than TrainSize vectors
// stays raw; one of TrainSize or more is coded, keeping raw vectors only for
// the rows before the training set's last one, and none once linked; and
// the coded graph still finds each stored vector's region.
func TestPQCompression(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vecs, tags := randUnits(400, 32, rng)
	cfg := CollectionConfig{Dim: 32, Seed: 5, PQ: &PQConfig{M: 4, K: 16, TrainSize: 100}}
	for _, n := range []int{99, 100} {
		c := build(t, cfg, vecs[:n], nil)
		raw := c.quantizer == nil && c.codes == nil && len(c.vectors) == n
		coded := c.quantizer != nil && len(c.vectors) == 99 && c.codes.Len() == n &&
			c.codes.Size() == (n+7)/8*8*c.quantizer.CodeLen()
		if raw == coded || coded != (n >= 100) {
			t.Fatalf("%d rows: raw %v, coded %v", n, raw, coded)
		}
		if c.GraphStats(); coded && c.vectors != nil {
			t.Fatalf("%d rows: %d raw vectors kept after the link", n, len(c.vectors))
		}
	}
	c := build(t, cfg, vecs, tags)
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

func BenchmarkSearchCosine10k(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	vecs, _ := randUnits(10000, 64, rng)
	c := build(b, CollectionConfig{Dim: 64, Seed: 12}, vecs, nil)
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

// TestBuildParallel exercises the concurrent construction path end to
// end: graph intact (fully reachable), PQ trained, searches work, and the
// codes match the serial run (encode is worker-count-invariant).
func TestBuildParallel(t *testing.T) {
	const (
		dim = 16
		n   = 400
	)
	cfg := CollectionConfig{
		Dim: dim, M: 8, EfConstruction: 60, Seed: 4,
		PQ:      &PQConfig{M: 4, K: 16, TrainSize: 128},
		Workers: 4,
	}
	vecs, _ := randUnits(n, dim, rand.New(rand.NewSource(4)))
	c := build(t, cfg, vecs, nil)
	if rowCount(c) != n {
		t.Fatalf("len=%d", rowCount(c))
	}
	st := c.GraphStats()
	if st.ReachableFraction != 1.0 {
		t.Fatalf("reachable fraction %v after parallel build", st.ReachableFraction)
	}
	if c.quantizer == nil {
		t.Fatal("PQ must have trained")
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	sc := build(t, serialCfg, vecs, nil)
	if !reflect.DeepEqual(sc.codes, c.codes) {
		t.Fatal("codes depend on worker count")
	}
	res, err := searchOne(c, vecs[17], 3, 0, nil)
	if err != nil || len(res) == 0 {
		t.Fatalf("search after parallel build: res=%v err=%v", res, err)
	}
}

// TestBuildValidation covers the error paths: bad configs, a vector of
// the wrong dimension, a tag count that does not match; and an empty build,
// which holds no rows and answers a search with none.
func TestBuildValidation(t *testing.T) {
	for _, bad := range []CollectionConfig{
		{},
		{Dim: 4, M: 1},
		{Dim: 4, M: -2},
		{Dim: 4, EfSearch: -1},
		{Dim: 4, PQ: &PQConfig{K: -1}},
	} {
		if _, err := Build(bad, nil, nil, nil); err == nil {
			t.Errorf("config %+v must fail", bad)
		}
	}
	cfg := CollectionConfig{Dim: 4}
	if _, err := Build(cfg, [][]float32{{1, 0, 0, 0}, {1, 2}}, nil, nil); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, err := Build(cfg, [][]float32{{1, 2, 3, 4}}, []int32{1, 2}, nil); err == nil {
		t.Fatal("tag count mismatch must fail")
	}
	c := build(t, cfg, nil, nil)
	got, err := searchOne(c, []float32{1, 0, 0, 0}, 3, 0, nil)
	if err != nil || len(got) != 0 || rowCount(c) != 0 {
		t.Fatalf("empty build: len %d, search %v, %v", rowCount(c), got, err)
	}
}
