package cluster

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// batchStubShard implements the BatchShard fast path over a stubShard.
type batchStubShard struct {
	stubShard
	mu         sync.Mutex
	batchCalls int
}

func (s *batchStubShard) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	s.mu.Lock()
	s.batchCalls++
	s.mu.Unlock()
	out := make([][]core.Match, len(qs))
	for i := range qs {
		m, err := s.stubShard.SearchEncoded(ctx, qs[i], ks[i])
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (s *batchStubShard) batchCallCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batchCalls
}

// TestSearchBatchFastPath verifies a BatchShard receives the whole block in
// one call and every item's answer matches a per-query Search.
func TestSearchBatchFastPath(t *testing.T) {
	shard := &batchStubShard{stubShard: stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8), m(2, 0.7)}}}
	r := mustRouter(t, []Shard{shard}, testOpts())

	items := []BatchQuery{{"a", 2}, {"b", 3}, {"c", 1}}
	results, err := r.SearchBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got := shard.batchCallCount(); got != 1 {
		t.Fatalf("shard got %d batch calls, want 1", got)
	}
	for i, it := range items {
		want, err := r.Search(context.Background(), it.Query, it.K)
		if err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if len(results[i].Matches) != len(want.Matches) {
			t.Fatalf("item %d: %d matches vs %d sequential", i, len(results[i].Matches), len(want.Matches))
		}
		for j := range want.Matches {
			if results[i].Matches[j] != want.Matches[j] {
				t.Errorf("item %d match %d: %+v vs %+v", i, j, results[i].Matches[j], want.Matches[j])
			}
		}
	}
}

// TestSearchBatchFallback verifies shards without the batch interface still
// answer, via per-query calls.
func TestSearchBatchFallback(t *testing.T) {
	shard := &stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}}
	r := mustRouter(t, []Shard{shard}, testOpts())
	results, err := r.SearchBatch(context.Background(), []BatchQuery{{"a", 1}, {"b", 2}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if shard.callCount() != 2 {
		t.Fatalf("fallback made %d calls, want 2", shard.callCount())
	}
	if len(results[0].Matches) != 1 || len(results[1].Matches) != 2 {
		t.Fatalf("wrong match counts: %d, %d", len(results[0].Matches), len(results[1].Matches))
	}
}

// TestSearchBatchEdgeCases covers K ≤ 0 items, repeated items each
// answered in their own slot, a block of one taking the single-query
// path, and an all-failed batch turning into an error.
func TestSearchBatchEdgeCases(t *testing.T) {
	shard := &batchStubShard{stubShard: stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}}}
	r := mustRouter(t, []Shard{shard}, testOpts())

	results, err := r.SearchBatch(context.Background(), []BatchQuery{{"q", 1}, {"skip", 0}, {"q", 1}, {"q", 2}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(results[1].Matches) != 0 {
		t.Fatalf("k=0 item got matches")
	}
	if results[0] == results[2] || !reflect.DeepEqual(results[0].Matches, results[2].Matches) || len(results[0].Matches) != 1 {
		t.Errorf("repeated items: %+v and %+v, want equal answers in separate Results", results[0], results[2])
	}
	if len(results[3].Matches) != 2 {
		t.Errorf("k=2 item got %d matches", len(results[3].Matches))
	}
	// The three scored items go to the shard as one block.
	if got, batched := shard.callCount(), shard.batchCallCount(); got != 3 || batched != 1 {
		t.Errorf("batch made %d scans in %d batched calls, want 3 in 1", got, batched)
	}
	// A block of one goes through SearchEncoded, like Search.
	if _, err := r.SearchBatch(context.Background(), []BatchQuery{{"q", 1}, {"skip", 0}}); err != nil {
		t.Fatalf("batch of one: %v", err)
	}
	if got, batched := shard.callCount(), shard.batchCallCount(); got != 4 || batched != 1 {
		t.Errorf("batch of one: %d scans in %d batched calls, want 4 in 1", got, batched)
	}

	bad := mustRouter(t, []Shard{&stubShard{err: context.DeadlineExceeded}}, testOpts())
	if _, err := bad.SearchBatch(context.Background(), []BatchQuery{{"q", 1}}); err == nil {
		t.Error("all shards failing must error the batch")
	}
}

// TestSearchBatchDegraded verifies a failed shard degrades every scattered
// item instead of failing the batch.
func TestSearchBatchDegraded(t *testing.T) {
	ok := &stubShard{matches: []core.Match{m(0, 0.9)}}
	bad := &stubShard{err: context.DeadlineExceeded}
	r := mustRouter(t, []Shard{ok, bad}, testOpts())
	results, err := r.SearchBatch(context.Background(), []BatchQuery{{"a", 1}, {"b", 1}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, res := range results {
		if !res.Degraded || len(res.ShardErrors) != 1 {
			t.Errorf("item %d: degraded=%v errors=%v", i, res.Degraded, res.ShardErrors)
		}
		if len(res.Matches) != 1 {
			t.Errorf("item %d: lost the healthy shard's matches", i)
		}
	}
}

// costlyFailingShard does some accounted work and then fails, like a scan
// cut off by its deadline.
type costlyFailingShard struct{ err error }

func (s costlyFailingShard) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	obs.CostFrom(ctx).AddDistanceComps(7)
	return nil, s.err
}

// TestSearchBatchMatchesSearchUnderFailedShard: a query must report the
// same answer and the same health metadata — the failing attempt's cost
// included — whether it arrives alone or as a batch of one, and both paths
// record one shard span per attempt.
func TestSearchBatchMatchesSearchUnderFailedShard(t *testing.T) {
	shards := []Shard{
		&stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}},
		costlyFailingShard{err: errors.New("scan aborted")},
	}
	r := mustRouter(t, shards, testOpts())
	shardSpans := func(tr *obs.Trace) int {
		n := 0
		for _, sp := range tr.Spans() {
			if sp.Name == "shard" {
				n++
			}
		}
		return n
	}

	single := obs.NewTrace()
	want, err := r.SearchTraced(context.Background(), "q", 2, single)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	batched := obs.NewTrace()
	results, err := r.SearchBatch(obs.ContextWithTrace(context.Background(), batched), []BatchQuery{{"q", 2}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	got := results[0]

	if !want.Degraded || want.ShardCosts[1].DistanceComps != 7 || want.Cost.DistanceComps != 7 {
		t.Fatalf("single result does not report the failed shard's work: %+v", want)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) || got.Degraded != want.Degraded ||
		!reflect.DeepEqual(got.ShardErrors, want.ShardErrors) || !reflect.DeepEqual(got.ShardCosts, want.ShardCosts) ||
		got.Cost != want.Cost {
		t.Errorf("batch of one disagrees with the single search:\nbatch  %+v\nsingle %+v", got, want)
	}
	if s, b := shardSpans(single), shardSpans(batched); s != 2 || b != 2 {
		t.Errorf("shard spans: single %d, batch %d, want 2 each", s, b)
	}
}
