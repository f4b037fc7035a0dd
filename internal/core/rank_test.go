package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"semdisco/internal/obs"
	"semdisco/internal/segment"
	"semdisco/internal/table"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// rankHitsBySort is the rank step as a full sort: a zeroed row of sums and
// hit counts per relation slot, every slot scanned, every scored relation
// sorted, and the sorted list cut at the threshold and at k. rankHits must
// return exactly its rows.
func rankHitsBySort(e *Embedded, post *postings, allowed relSet, threshold float32, k int, lists [][]vectordb.Result) []Match {
	ids, totalWeight := e.RelIDs, e.TotalWeight
	sums := make([]float32, len(ids))
	hits := make([]float32, len(ids))
	for _, list := range lists {
		for _, h := range list {
			for _, vi := range post.of(h.Tag) {
				v := &e.Values[vi]
				if !allowed.has(int(v.Rel)) {
					continue
				}
				if h.Score > 0 {
					sums[v.Rel] += v.Weight * h.Score
				}
				hits[v.Rel]++
			}
		}
	}
	hasDead := e.deadCount() > 0
	scored := make([]vec.Scored, 0, len(ids))
	for i := range ids {
		if hits[i] <= 0 || totalWeight[i] <= 0 {
			continue
		}
		if hasDead && e.Tombs.Dead(i) {
			continue
		}
		scored = append(scored, vec.Scored{ID: i, Score: sums[i] / totalWeight[i]})
	}
	vec.SortScoredDesc(scored)
	out := make([]Match, 0, min(k, len(scored)))
	for _, s := range scored {
		if s.Score < threshold {
			break
		}
		out = append(out, Match{RelationID: ids[s.ID], Score: s.Score})
		if len(out) == k {
			break
		}
	}
	return out
}

// TestRankHitsMatchesSortFold folds random hit lists over a federation in
// which relations come in pairs holding the same texts — so scores tie and
// the slot tie-break decides — through rankHits and through the full-sort
// reference: thresholds that cut inside the ranking, k below, at and far
// above the number of touched relations, tombstoned slots, allow-lists,
// and one scratch reused across every fold, so a slot the previous fold
// left behind would show.
func TestRankHitsMatchesSortFold(t *testing.T) {
	fed := table.NewFederation()
	for i := 0; i < 60; i++ {
		r := &table.Relation{ID: fmt.Sprintf("r%02d", i), Source: "src", Columns: []string{"a"}}
		for j := 0; j < 1+(i/2)%4; j++ {
			r.Rows = append(r.Rows, []string{word(i/2, j)})
		}
		if i%7 == 0 {
			r.Rows = append(r.Rows, r.Rows[0]) // a weight above 1
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	emb := EmbedFederation(fed, newTestEncoder(16))
	// Three groups, as CTS has clusters: a query's lists come one per group.
	// A text's values share a group, so both relations of a pair sit behind
	// the same points.
	groupOf := make([]int, len(emb.Values))
	for i, v := range emb.Values {
		groupOf[i] = int(v.Text) % 3
	}
	post := newPostings(emb, groupOf, 3)
	rng := rand.New(rand.NewSource(3))
	randomLists := func() [][]vectordb.Result {
		var lists [][]vectordb.Result
		for g := range 3 {
			lo, hi := post.first[g], post.first[g+1]
			var list []vectordb.Result
			for p := lo; p < hi; p++ {
				if rng.Intn(3) == 0 {
					// Scores on a coarse grid, some ≤ 0: ties and skipped sums.
					list = append(list, vectordb.Result{Tag: int32(p), Score: float32(rng.Intn(12)-2) / 8})
				}
			}
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			lists = append(lists, list)
		}
		return lists
	}
	even := func(id string) bool { return id[len(id)-1]%2 == 0 }
	allowEven := emb.allowedSet(even)
	rs := new(rankScratch)
	ties := 0
	check := func(name string, allowed relSet, threshold float32, k int) {
		t.Helper()
		for round := range 20 {
			lists := randomLists()
			got := emb.rankHits(rs, post, allowed, threshold, k, lists)
			want := rankHitsBySort(emb, post, allowed, threshold, k, lists)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s round %d:\nrankHits %v\nsort     %v", name, round, got, want)
			}
			for i := 1; i < len(want); i++ {
				if want[i].Score == want[i-1].Score {
					ties++
				}
			}
		}
	}
	for _, k := range []int{1, 3, 10, 1000} {
		for _, threshold := range []float32{-1, 0, 0.3, 0.7, 2} {
			check(fmt.Sprintf("k=%d h=%v", k, threshold), nil, threshold, k)
			check(fmt.Sprintf("allow-list k=%d h=%v", k, threshold), allowEven, threshold, k)
		}
	}
	emb.Tombs = segment.NewTombstones()
	for _, slot := range []int{0, 1, 5, 30, 59} {
		emb.Tombs.Mark(slot)
	}
	check("tombstones", nil, 0, 10)
	check("tombstones k>touched", nil, -1, 1000)
	check("tombstones + allow-list", emb.allowedSet(even), 0, 5)
	if ties == 0 {
		t.Fatal("no two ranked relations tied: the tie-break went untested")
	}
	for i, v := range rs.sums {
		if v != 0 || rs.seen[i] {
			t.Fatalf("slot %d left dirty after the last fold: sum %v, seen %v", i, v, rs.seen[i])
		}
	}
}

// relationsFederation builds n relations of two texts each, every text
// unique to its relation, so a query's hits touch at most its fanout of
// relations however many the corpus holds.
func relationsFederation(t *testing.T, n int) *table.Federation {
	t.Helper()
	fed := table.NewFederation()
	for i := 0; i < n; i++ {
		r := &table.Relation{ID: fmt.Sprintf("rel%05d", i), Source: "src", Columns: []string{"a"},
			Rows: [][]string{{fmt.Sprintf("%s x%05d", word(i, 0), i)}, {fmt.Sprintf("%s y%05d", word(i, 1), i)}}}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// bytesPerQuery reports the heap bytes one call of run allocates per query
// it answers: the least of three rounds' TotalAlloc means, so a round in
// which the collector emptied a pool does not count.
func bytesPerQuery(queries int, run func()) float64 {
	run() // warm the pools
	best := -1.0
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const calls = 20
		for range calls {
			run()
		}
		runtime.ReadMemStats(&after)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(calls*queries)
		if best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestSearchBytesIndependentOfRelations: the rank step folds into pooled
// per-worker rows and touches only the relations a query's hits carry, so
// the bytes an ANNS or CTS query allocates do not grow with the segment's
// relation count, single or in a batch. Bytes, not allocations: a row per
// relation is one allocation at any size.
func TestSearchBytesIndependentOfRelations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools at random")
	}
	ctx := context.Background()
	type searcher interface {
		EncodedSearcher
		BatchSearcher
	}
	build := map[string]func(*Embedded) (searcher, error){
		"ANNS": func(emb *Embedded) (searcher, error) {
			return NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true})
		},
		"CTS": func(emb *Embedded) (searcher, error) {
			return NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA, SampleCap: 512})
		},
	}
	const nq = 16
	perQuery := func(method string, rels int) (single, batch float64) {
		emb := EmbedFederation(relationsFederation(t, rels), newTestEncoder(16))
		s, err := build[method](emb)
		if err != nil {
			t.Fatal(err)
		}
		qs := batchQueries(emb, nq)
		ks := make([]int, nq)
		for i := range ks {
			ks[i] = 10
		}
		costs := make([]*obs.Cost, nq)
		single = bytesPerQuery(1, func() {
			if _, err := s.SearchEncoded(ctx, qs[0], 10); err != nil {
				t.Fatal(err)
			}
		})
		batch = bytesPerQuery(nq, func() {
			if _, err := s.SearchEncodedBatch(ctx, qs, ks, costs); err != nil {
				t.Fatal(err)
			}
		})
		return single, batch
	}
	// The full-sort fold allocated 24 B per relation (two float32 rows and
	// a Scored per slot): over 200 KB more per query at 10k relations.
	const slack = 4 << 10
	for _, method := range []string{"ANNS", "CTS"} {
		s1k, b1k := perQuery(method, 1000)
		s10k, b10k := perQuery(method, 10000)
		t.Logf("%s bytes per query: single %.0f → %.0f, batch %.0f → %.0f (1k → 10k relations)", method, s1k, s10k, b1k, b10k)
		if s10k-s1k > slack || b10k-b1k > slack {
			t.Errorf("%s: a query allocates %.0f B at 1k relations and %.0f B at 10k single, %.0f B and %.0f B in a batch",
				method, s1k, s10k, b1k, b10k)
		}
	}
}
