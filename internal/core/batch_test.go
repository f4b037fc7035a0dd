package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"semdisco/internal/obs"
)

// batchQueries builds nq encoded test queries with varied texts.
func batchQueries(emb *Embedded, nq int) [][]float32 {
	qs := make([][]float32, nq)
	for i := range qs {
		qs[i] = emb.Enc.Encode(word(i, 0) + " " + word(i+1, 2) + " " + word(i*3, 1))
	}
	return qs
}

// assertRowsIdentical fails unless every batch row equals the sequential
// answer match for match, score bits included.
func assertRowsIdentical(t *testing.T, name string, seq, batch [][]Match) {
	t.Helper()
	if len(seq) != len(batch) {
		t.Fatalf("%s: %d rows vs %d", name, len(seq), len(batch))
	}
	for i := range seq {
		if len(seq[i]) != len(batch[i]) {
			t.Fatalf("%s row %d: %d matches sequential vs %d batched", name, i, len(seq[i]), len(batch[i]))
		}
		for j := range seq[i] {
			if seq[i][j] != batch[i][j] {
				t.Errorf("%s row %d match %d: sequential %+v vs batched %+v", name, i, j, seq[i][j], batch[i][j])
			}
		}
	}
}

// TestExSBatchBitIdentical pins the batch invariant: the fused blocked scan
// returns bit-identical rows to per-query SearchEncoded calls and to the
// value-by-value oracle, with and without a threshold filtering part of
// the corpus.
func TestExSBatchBitIdentical(t *testing.T) {
	fed := testFederation(t, 60)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opt  ExSOptions
	}{
		{"mean", ExSOptions{}},
		{"threshold", ExSOptions{Threshold: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewExS(emb, tc.opt)
			qs := batchQueries(emb, 17)
			ks := make([]int, len(qs))
			seq := make([][]Match, len(qs))
			for i := range qs {
				ks[i] = 1 + i%9
				m, err := s.SearchEncoded(ctx, qs[i], ks[i])
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				seq[i] = m
			}
			batch, err := s.SearchEncodedBatch(ctx, qs, ks, nil)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			assertRowsIdentical(t, tc.name, seq, batch)
			want := make([][]Match, len(qs))
			for i := range qs {
				want[i] = oracleRank(emb, qs[i], ks[i], tc.opt.Threshold)
			}
			assertRowsIdentical(t, tc.name+" vs oracle", want, batch)
		})
	}
}

// TestBatchMatchesSequential checks every method's batch path against its
// sequential path, including skipped (k ≤ 0) items.
func TestBatchMatchesSequential(t *testing.T) {
	fed := testFederation(t, 50)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()

	searchers := []Searcher{NewExS(emb, ExSOptions{})}
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true})
	if err != nil {
		t.Fatalf("anns: %v", err)
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA})
	if err != nil {
		t.Fatalf("cts: %v", err)
	}
	searchers = append(searchers, anns, cts)

	for _, s := range searchers {
		bs, ok := s.(BatchSearcher)
		if !ok {
			t.Fatalf("%s does not implement BatchSearcher", s.Name())
		}
		es := s.(EncodedSearcher)
		qs := batchQueries(emb, 12)
		ks := []int{5, 0, 3, -1, 8, 5, 1, 20, 4, 0, 7, 2}
		seq := make([][]Match, len(qs))
		for i := range qs {
			if ks[i] <= 0 {
				continue
			}
			m, err := es.SearchEncoded(ctx, qs[i], ks[i])
			if err != nil {
				t.Fatalf("%s sequential: %v", s.Name(), err)
			}
			seq[i] = m
		}
		batch, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
		if err != nil {
			t.Fatalf("%s batch: %v", s.Name(), err)
		}
		assertRowsIdentical(t, s.Name(), seq, batch)
		for i, k := range ks {
			if k <= 0 && batch[i] != nil {
				t.Errorf("%s: skipped item %d got %d matches", s.Name(), i, len(batch[i]))
			}
		}
	}
}

// TestBatchCosts checks the batch path charges each query's accumulator the
// same work its sequential call records.
func TestBatchCosts(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()
	s := NewExS(emb, ExSOptions{})

	qs := batchQueries(emb, 6)
	ks := []int{5, 5, 5, 5, 5, 5}
	costs := make([]*obs.Cost, len(qs))
	for i := range costs {
		costs[i] = &obs.Cost{}
	}
	if _, err := s.SearchEncodedBatch(ctx, qs, ks, costs); err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := range qs {
		seqCost := &obs.Cost{}
		if _, err := s.SearchEncoded(obs.ContextWithCost(ctx, seqCost), qs[i], ks[i]); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if got, want := costs[i].Report(), seqCost.Report(); got != want {
			t.Errorf("query %d cost: batch %+v vs sequential %+v", i, got, want)
		}
	}
}

// TestBatchCancelled verifies a dead context aborts the whole batch.
func TestBatchCancelled(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	searchers := []Searcher{NewExS(emb, ExSOptions{})}
	if anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true}); err == nil {
		searchers = append(searchers, anns)
	}
	if cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA}); err == nil {
		searchers = append(searchers, cts)
	}
	qs := batchQueries(emb, 4)
	ks := []int{5, 5, 5, 5}
	for _, s := range searchers {
		if _, err := s.(BatchSearcher).SearchEncodedBatch(ctx, qs, ks, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", s.Name(), err)
		}
	}
}

// TestBatchArgMismatch verifies the parallel-slice shape is validated.
func TestBatchArgMismatch(t *testing.T) {
	fed := testFederation(t, 10)
	emb := EmbedFederation(fed, newTestEncoder(32))
	s := NewExS(emb, ExSOptions{})
	qs := batchQueries(emb, 3)
	if _, err := s.SearchEncodedBatch(context.Background(), qs, []int{5, 5}, nil); err == nil {
		t.Fatal("want error for ks length mismatch")
	}
	if _, err := s.SearchEncodedBatch(context.Background(), qs, []int{5, 5, 5}, make([]*obs.Cost, 2)); err == nil {
		t.Fatal("want error for costs length mismatch")
	}
}

// TestConcurrentBatches runs overlapping batches on every method under the
// race detector: the batch paths share index state but no mutable scratch.
func TestConcurrentBatches(t *testing.T) {
	fed := testFederation(t, 50)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()

	searchers := []Searcher{NewExS(emb, ExSOptions{})}
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true})
	if err != nil {
		t.Fatalf("anns: %v", err)
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA})
	if err != nil {
		t.Fatalf("cts: %v", err)
	}
	searchers = append(searchers, anns, cts)

	for _, s := range searchers {
		bs := s.(BatchSearcher)
		qs := batchQueries(emb, 8)
		ks := []int{3, 5, 2, 7, 4, 1, 6, 5}
		want, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					got, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
					if err != nil {
						t.Errorf("%s: %v", s.Name(), err)
						return
					}
					for i := range want {
						if len(got[i]) != len(want[i]) {
							t.Errorf("%s row %d: %d vs %d matches", s.Name(), i, len(got[i]), len(want[i]))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
