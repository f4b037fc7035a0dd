package vectordb

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/obs"
)

// TestSearchBatchMatchesSearch pins the collection batch contract, raw and
// PQ-compressed: one SearchBatch call over a prepared block — one walk scratch and one ADC table
// reused across the block — returns exactly what per-query blocks of one
// return, row by row, and charges each query's accumulator the same work
// as a block of one.
func TestSearchBatchMatchesSearch(t *testing.T) {
	for _, tc := range []struct {
		name string
		pq   *PQConfig
	}{
		{"raw", nil},
		{"pq", &PQConfig{M: 4, K: 16, TrainSize: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			vecs, tags := randUnits(400, 16, rng)
			c := build(t, CollectionConfig{Dim: 16, Seed: 1, PQ: tc.pq}, vecs, tags)
			if (tc.pq != nil) != (c.Quantizer() != nil) {
				t.Fatalf("quantizer trained = %v, want %v", c.Quantizer() != nil, tc.pq != nil)
			}
			nq := 37
			queries := make([][]float32, nq)
			ks := make([]int, nq)
			efs := make([]int, nq)
			for i := range queries {
				queries[i] = randUnit(16, rng)
				ks[i] = 1 + i%7
				efs[i] = 32 + i
			}
			ks[3], ks[20] = 0, 0 // skipped rows

			costs := make([]*obs.Cost, nq)
			for i := range costs {
				costs[i] = &obs.Cost{}
			}
			prepared := Prepare(queries)
			rows, err := c.SearchBatch(context.Background(), prepared, ks, efs, nil, costs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				if ks[i] <= 0 {
					if rows[i] != nil {
						t.Fatalf("row %d: skipped query got %d results", i, len(rows[i]))
					}
					continue
				}
				want, err := searchOne(c, queries[i], ks[i], efs[i], nil)
				if err != nil {
					t.Fatal(err)
				}
				seqCost := &obs.Cost{}
				if _, err := c.SearchBatch(context.Background(), prepared[i:i+1], ks[i:i+1], efs[i:i+1], nil, []*obs.Cost{seqCost}); err != nil {
					t.Fatal(err)
				}
				if len(rows[i]) != len(want) {
					t.Fatalf("row %d: %d vs %d results", i, len(rows[i]), len(want))
				}
				for j := range want {
					if rows[i][j].Tag != want[j].Tag || math.Float32bits(rows[i][j].Score) != math.Float32bits(want[j].Score) {
						t.Errorf("row %d result %d: %+v vs %+v", i, j, rows[i][j], want[j])
					}
				}
				got, wantRep := costs[i].Report(), seqCost.Report()
				if got != wantRep {
					t.Errorf("row %d cost: batch %+v vs sequential %+v", i, got, wantRep)
				}
				if tc.pq != nil && got.PQLookups == 0 {
					t.Errorf("row %d: no PQ lookups charged: %+v", i, got)
				}
			}
		})
	}
}

// TestSearchBatchValidation covers shape mismatches, dimension errors and
// cancellation.
func TestSearchBatchValidation(t *testing.T) {
	c := build(t, CollectionConfig{Dim: 4, Seed: 1}, [][]float32{{1, 0, 0, 0}}, nil)

	q := [][]float32{{1, 0, 0, 0}}
	if _, err := c.SearchBatch(context.Background(), q, []int{1, 2}, nil, nil, nil); err == nil {
		t.Fatal("ks length mismatch must fail")
	}
	if _, err := c.SearchBatch(context.Background(), [][]float32{{1}}, []int{1}, nil, nil, nil); err == nil {
		t.Fatal("wrong dim must fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SearchBatch(ctx, q, []int{1}, nil, nil, nil); err == nil {
		t.Fatal("dead context must fail")
	}
}
