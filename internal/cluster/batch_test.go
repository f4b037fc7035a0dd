package cluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// inflightWaiters counts followers parked on in-flight calls.
func (r *Router) inflightWaiters() int {
	r.inflightMu.Lock()
	defer r.inflightMu.Unlock()
	n := 0
	for _, c := range r.inflight {
		n += int(c.waiters.Load())
	}
	return n
}

// gatedShard signals when a search enters it and blocks until released, so
// tests can pin concurrent requests behind one in-flight scan.
type gatedShard struct {
	stubShard
	entered chan struct{} // closed on first entry
	release chan struct{} // entry blocks until closed
	once    sync.Once
	inside  atomic.Int32 // searches that have entered
}

func (s *gatedShard) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	s.inside.Add(1)
	s.once.Do(func() { close(s.entered) })
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.stubShard.SearchEncoded(ctx, q, k)
}

// TestCoalescingSingleScan pins the singleflight contract: N concurrent
// identical (query, k) requests execute exactly one shard scan; the
// followers get the leader's matches marked Coalesced.
func TestCoalescingSingleScan(t *testing.T) {
	shard := &gatedShard{
		stubShard: stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}},
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	r := mustRouter(t, []Shard{shard}, testOpts())

	const followers = 8
	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		results[i], errs[i] = r.Search(context.Background(), "q", 2)
	}
	// The leader registers the in-flight call before its scatter reaches the
	// shard, so once the shard reports entry every later request must join
	// the existing call rather than start its own scan.
	wg.Add(1)
	go run(0)
	<-shard.entered
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go run(i)
	}
	// Wait until all followers are parked on the in-flight call, then let
	// the leader's scan finish.
	for r.inflightWaiters() < followers {
		runtime.Gosched()
	}
	close(shard.release)
	wg.Wait()

	if got := shard.callCount(); got != 1 {
		t.Fatalf("shard scanned %d times, want exactly 1", got)
	}
	coalesced := 0
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(res.Matches) != 2 || res.Matches[0] != m(0, 0.9) {
			t.Fatalf("request %d: wrong matches %+v", i, res.Matches)
		}
		if res.Coalesced {
			coalesced++
		}
	}
	if coalesced != followers {
		t.Errorf("%d coalesced results, want %d", coalesced, followers)
	}
}

// TestCoalescedResultIsolated verifies a follower's matches are a private
// copy: mutating them must not corrupt the leader's result or the cache.
func TestCoalescedResultIsolated(t *testing.T) {
	shard := &gatedShard{
		stubShard: stubShard{matches: []core.Match{m(0, 0.9)}},
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	r := mustRouter(t, []Shard{shard}, testOpts())
	var follower *Result
	var wg sync.WaitGroup
	wg.Add(2)
	var leader *Result
	go func() { defer wg.Done(); leader, _ = r.Search(context.Background(), "q", 1) }()
	<-shard.entered
	go func() { defer wg.Done(); follower, _ = r.Search(context.Background(), "q", 1) }()
	for r.inflightWaiters() < 1 {
		runtime.Gosched()
	}
	close(shard.release)
	wg.Wait()

	follower.Matches[0].Score = -1
	if leader.Matches[0].Score != 0.9 {
		t.Fatalf("mutating the coalesced copy reached the leader: %+v", leader.Matches[0])
	}
}

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

// TestSearchBatchDedup verifies identical (query, k) items inside one batch
// share a single slot: one scan, duplicates marked Coalesced with zero cost.
func TestSearchBatchDedup(t *testing.T) {
	shard := &batchStubShard{stubShard: stubShard{matches: []core.Match{m(0, 0.9)}}}
	r := mustRouter(t, []Shard{shard}, testOpts())

	items := []BatchQuery{{"q", 1}, {"q", 1}, {"q", 2}, {"q", 1}}
	results, err := r.SearchBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	coalesced := 0
	for i, res := range results {
		if len(res.Matches) != 1 {
			t.Fatalf("item %d: %d matches", i, len(res.Matches))
		}
		if res.Coalesced {
			coalesced++
			if res.Cost != (obs.CostReport{}) {
				t.Errorf("item %d: coalesced item carries cost %+v", i, res.Cost)
			}
		}
	}
	// Two distinct slots — ("q",1) and ("q",2) — so two of the four items
	// coalesce onto the first slot.
	if coalesced != 2 {
		t.Errorf("%d coalesced items, want 2", coalesced)
	}
}

// TestSearchBatchCacheAndEdgeCases covers K ≤ 0 items, the cache answering
// a repeat batch, and an all-failed batch turning into an error.
func TestSearchBatchCacheAndEdgeCases(t *testing.T) {
	shard := &batchStubShard{stubShard: stubShard{matches: []core.Match{m(0, 0.9)}}}
	opts := testOpts()
	opts.CacheSize = 8
	r := mustRouter(t, []Shard{shard}, opts)

	items := []BatchQuery{{"q", 1}, {"skip", 0}}
	first, err := r.SearchBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(first[1].Matches) != 0 {
		t.Fatalf("k=0 item got matches")
	}
	second, err := r.SearchBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("repeat batch: %v", err)
	}
	if !second[0].CacheHit {
		t.Error("repeat batch item missed the cache")
	}
	// A block of one distinct query goes through SearchEncoded, like Search.
	if got, batched := shard.callCount(), shard.batchCallCount(); got != 1 || batched != 0 {
		t.Errorf("cacheable repeat caused %d scans (%d batched), want 1 (0)", got, batched)
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
	if !reflect.DeepEqual(got.Matches, want.Matches) || got.Degraded != want.Degraded || got.Hedged != want.Hedged ||
		!reflect.DeepEqual(got.ShardErrors, want.ShardErrors) || !reflect.DeepEqual(got.ShardCosts, want.ShardCosts) ||
		got.Cost != want.Cost {
		t.Errorf("batch of one disagrees with the single search:\nbatch  %+v\nsingle %+v", got, want)
	}
	if s, b := shardSpans(single), shardSpans(batched); s != 2 || b != 2 {
		t.Errorf("shard spans: single %d, batch %d, want 2 each", s, b)
	}
}
