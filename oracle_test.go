package semdisco

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"semdisco/internal/corpus"
	"semdisco/internal/oracle"
)

// oracleSearch is the reference ranking of the equivalence suites: the
// engine's live corpus, in insertion order, ranked by internal/oracle —
// value by value, no code shared with the search paths under test. An
// engine that has been written to is compacted first, so its one base
// segment is that corpus.
func oracleSearch(t testing.TB, eng *Engine, query string, k int) []Match {
	t.Helper()
	if st := eng.SegmentStats(); st.Segments != 1 || st.DeadRelations != 0 {
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	_, emb := eng.store.Base()
	return oracle.Rank(emb, eng.Embed(query), k, eng.cfg.Threshold)
}

// TestExSPoolMatchesOracle is the benchmark gate's check with a reference
// that shares nothing with the code under test: the exs-scan corpus (scale
// 4, 2,400 relations, dim 256) on two seeds, every one of its 1,200 pool
// queries through Do and, in blocks of 64, DoBatch — IDs and float32 scores
// equal to the oracle's. A scan of 63k values per query per seed, so not
// under -short.
func TestExSPoolMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("1,200 value-by-value scans of 63k values per seed")
	}
	for _, seed := range []int64{7, 11} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			p := corpus.WikiTables().Scaled(4)
			p.QueriesPerClass = 400
			p.Seed = seed
			c := corpus.Generate(p)
			eng, err := Open(c.Federation, Config{Method: ExS, Dim: 256, Seed: seed, Lexicon: c.Lexicon})
			if err != nil {
				t.Fatal(err)
			}
			const k, block = 10, 64
			ctx := context.Background()
			want := make([][]Match, len(c.Queries))
			for i, q := range c.Queries {
				want[i] = oracleSearch(t, eng, q.Text, k)
				resp, err := eng.Do(ctx, Request{Query: q.Text, K: k})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resp.Matches, want[i]) {
					t.Fatalf("query %d %q:\n got: %v\nwant: %v", i, q.Text, resp.Matches, want[i])
				}
			}
			for lo := 0; lo < len(c.Queries); lo += block {
				hi := min(lo+block, len(c.Queries))
				batch := make([]Query, hi-lo)
				for i := range batch {
					batch[i] = Query{Text: c.Queries[lo+i].Text, K: k}
				}
				res, err := eng.DoBatch(ctx, batch)
				if err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					if !reflect.DeepEqual(res[i].Matches, want[lo+i]) {
						t.Fatalf("batched query %d %q:\n got: %v\nwant: %v", lo+i, batch[i].Text, res[i].Matches, want[lo+i])
					}
				}
			}
		})
	}
}
