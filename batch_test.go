package semdisco

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestEngineSearchBatchMatchesSearch pins the public batch contract for
// every method: SearchBatch answers are identical to per-query Search —
// bit-identical for ExS — and skipped (K ≤ 0) items come back empty.
func TestEngineSearchBatchMatchesSearch(t *testing.T) {
	fed := synthFederation(t, 40)
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(fed, Config{Method: m, Dim: 64, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		queries := make([]Query, 10)
		for i := range queries {
			queries[i] = Query{Text: fmt.Sprintf("abc def %d", i%4), K: 1 + i%5}
		}
		queries[4].K = 0
		queries[7].K = -2

		results, err := eng.DoBatch(context.Background(), queries)
		if err != nil {
			t.Fatalf("%v batch: %v", m, err)
		}
		if len(results) != len(queries) {
			t.Fatalf("%v: %d results for %d queries", m, len(results), len(queries))
		}
		for i, q := range queries {
			if q.K <= 0 {
				if len(results[i].Matches) != 0 {
					t.Errorf("%v item %d: skipped query got matches", m, i)
				}
				continue
			}
			want, err := eng.Search(q.Text, q.K)
			if err != nil {
				t.Fatalf("%v sequential: %v", m, err)
			}
			if ref := oracleSearch(t, eng, q.Text, q.K); m == ExS && !reflect.DeepEqual(want, ref) {
				t.Fatalf("%v item %d: sequential %v, oracle %v", m, i, want, ref)
			}
			if len(results[i].Matches) != len(want) {
				t.Fatalf("%v item %d: %d matches vs %d sequential", m, i, len(results[i].Matches), len(want))
			}
			for j := range want {
				if results[i].Matches[j] != want[j] {
					t.Errorf("%v item %d match %d: %+v vs %+v", m, i, j, results[i].Matches[j], want[j])
				}
			}
			if m == ExS && results[i].Cost.DistanceComps == 0 {
				t.Errorf("%v item %d: no cost accounted", m, i)
			}
		}
	}
}

// TestEngineSearchBatchEmptyAndCancelled covers the trivial shapes.
func TestEngineSearchBatchEmptyAndCancelled(t *testing.T) {
	eng, err := Open(synthFederation(t, 10), Config{Method: ExS, Dim: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := eng.DoBatch(context.Background(), nil); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DoBatch(ctx, []Query{{Text: "abc", K: 3}}); err == nil {
		t.Fatal("dead context must fail the batch")
	}
}
