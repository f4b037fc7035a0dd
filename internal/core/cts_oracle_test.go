package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/segment"
	"semdisco/internal/table"
)

// oneListFederation holds n relations of ten one-cell rows, every cell a
// text of its own, so the corpus has 10·n distinct texts.
func oneListFederation(t *testing.T, n int) *table.Federation {
	t.Helper()
	fed := table.NewFederation()
	for i := range n {
		r := &table.Relation{ID: fmt.Sprintf("rel-%03d", i), Source: "src", Columns: []string{"a"}}
		for j := range 10 {
			r.Rows = append(r.Rows, []string{fmt.Sprintf("%s%d", word(i, j), 10*i+j)})
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// TestCTSBatchMatchesOracle: CTS answers every query with its exact form,
// oracle.CTS, bit for bit — single queries and blocks, unfiltered, under an
// allow-list and with relations tombstoned, built serially and with four
// workers. The covid corpus has several clusters; the one-list corpus
// (MinClusterSize above its clustering sample, so one cluster around the
// global medoid) puts every point in one list of more than 2,304 points,
// the size past which a beam of 96 over a graph of degree 32 would walk.
func TestCTSBatchMatchesOracle(t *testing.T) {
	covid, covidModel := covidFederation(t)
	for _, corpus := range []struct {
		name    string
		fed     *table.Federation
		enc     embed.Encoder
		opt     CTSOptions
		queries []string
	}{
		{"covid", covid, covidModel, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 60},
			[]string{"COVID", "vaccine", "Europe", "mRNA Moderna", "football stadium", "minerals", "California first dose", "Pfizer"}},
		{"one list", oneListFederation(t, 240), newTestEncoder(64), CTSOptions{Seed: 1, Reduction: ReducePCA, SampleCap: 256, MinClusterSize: 1 << 20},
			[]string{"abc", "bdf7", "xyz 12", word(3, 4), word(17, 2) + " " + word(40, 5), "qrs tuv", "ghi1203", "mno"}},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", corpus.name, workers), func(t *testing.T) {
				emb := EmbedFederation(corpus.fed, corpus.enc)
				opt := corpus.opt
				opt.Build.Workers = workers
				cts, err := NewCTS(emb, opt)
				if err != nil {
					t.Fatal(err)
				}
				if corpus.name == "one list" {
					if lists := cts.NumClusters(); lists != 1 || len(cts.rows) <= 2304 {
						t.Fatalf("%d lists of %d points, want one of more than 2,304", lists, len(cts.rows))
					}
				}
				qs := make([][]float32, len(corpus.queries))
				ks := make([]int, len(qs))
				for i, q := range corpus.queries {
					qs[i], ks[i] = emb.Enc.Encode(q), 1+i%6
				}
				even := func(id string) bool { rel, _ := emb.RelIndex(id); return rel%2 == 0 }
				for _, tc := range []struct {
					name  string
					allow func(string) bool
					dead  []int
				}{
					{"unfiltered", nil, nil},
					{"filtered", even, nil},
					{"tombstoned", nil, []int{0, 3, 4, 9}},
					{"filtered and tombstoned", even, []int{0, 3, 4, 9}},
				} {
					emb.Tombs = segment.NewTombstones()
					for _, rel := range tc.dead {
						emb.Tombs.Mark(rel)
					}
					ctx := context.Background()
					batch, err := cts.searchBlock(ctx, searchObs{}, qs, ks, tc.allow, make([]*obs.Cost, len(qs)))
					if err != nil {
						t.Fatal(err)
					}
					for i, q := range qs {
						want := oracleCTS(emb, cts, opt, q, ks[i], tc.allow)
						got, err := cts.SearchFiltered(ctx, q, ks[i], tc.allow)
						if err != nil {
							t.Fatal(err)
						}
						if len(want) == 0 {
							t.Fatalf("%s query %d: the oracle ranks nothing", tc.name, i)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s query %d:\n got: %v\nwant: %v", tc.name, i, got, want)
						}
						if !reflect.DeepEqual(batch[i], want) {
							t.Fatalf("%s query %d batched:\n got: %v\nwant: %v", tc.name, i, batch[i], want)
						}
					}
				}
			})
		}
	}
}
