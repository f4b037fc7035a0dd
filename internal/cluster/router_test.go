package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// stubShard answers from a fixed match list, optionally failing or
// blocking until the context dies. delay, if set, sleeps before answering
// (still honoring ctx).
type stubShard struct {
	matches []core.Match
	err     error
	delay   time.Duration
	block   bool // ignore delay; wait for ctx and return its error

	mu    sync.Mutex
	calls int
}

func (s *stubShard) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if k > len(s.matches) {
		k = len(s.matches)
	}
	out := make([]core.Match, k)
	copy(out, s.matches[:k])
	return out, nil
}

func (s *stubShard) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// testOrder maps "rel-<i>" back to i for merge tie-breaking.
func testOrder(id string) int {
	var i int
	fmt.Sscanf(id, "rel-%d", &i)
	return i
}

func testOpts() Options {
	return Options{
		Encode: func(q string) []float32 { return []float32{1} },
		Order:  testOrder,
	}
}

func mustRouter(t *testing.T, shards []Shard, opts Options) *Router {
	t.Helper()
	counts := make([]int, len(shards))
	r, err := NewRouter(shards, counts, opts)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r
}

func m(i int, score float32) core.Match {
	return core.Match{RelationID: fmt.Sprintf("rel-%d", i), Score: score}
}

func TestMergeOrderAndTieBreak(t *testing.T) {
	// Scores collide across shards; ties must break by global order
	// (ascending relation index), interleaving the shards' lists exactly
	// as a single engine would rank them.
	shards := []Shard{
		&stubShard{matches: []core.Match{m(0, 0.9), m(2, 0.5), m(4, 0.5)}},
		&stubShard{matches: []core.Match{m(1, 0.9), m(3, 0.5), m(5, 0.1)}},
	}
	r := mustRouter(t, shards, testOpts())
	res, err := r.Search(context.Background(), "q", 5)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res.Degraded {
		t.Fatal("unexpected degradation")
	}
	want := []core.Match{m(0, 0.9), m(1, 0.9), m(2, 0.5), m(3, 0.5), m(4, 0.5)}
	if len(res.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Errorf("match %d = %+v, want %+v", i, res.Matches[i], want[i])
		}
	}
}

func TestDegradationWithinDeadline(t *testing.T) {
	// One shard never answers; the per-shard deadline must cut it off and
	// the query must come back degraded with the healthy shard's results,
	// well before the parent context's much larger deadline.
	healthy := &stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}}
	stuck := &stubShard{block: true}
	opts := testOpts()
	opts.ShardTimeout = 50 * time.Millisecond
	r := mustRouter(t, []Shard{healthy, stuck}, opts)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := r.Search(ctx, "q", 2)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("degraded search took %v; the shard deadline did not fire", elapsed)
	}
	if !res.Degraded {
		t.Fatal("want Degraded=true")
	}
	if len(res.ShardErrors) != 1 || res.ShardErrors[0].Shard != 1 {
		t.Fatalf("shard errors = %+v, want shard 1", res.ShardErrors)
	}
	if !errors.Is(res.ShardErrors[0].Err, context.DeadlineExceeded) {
		t.Fatalf("shard error = %v, want deadline exceeded", res.ShardErrors[0].Err)
	}
	if len(res.Matches) != 2 || res.Matches[0] != m(0, 0.9) {
		t.Fatalf("matches = %+v, want healthy shard's results", res.Matches)
	}
	st := r.Stats()
	if st.Shards[1].Timeouts != 1 {
		t.Errorf("shard 1 timeouts = %d, want 1", st.Shards[1].Timeouts)
	}
	if st.Degraded != 1 {
		t.Errorf("degraded counter = %d, want 1", st.Degraded)
	}
}

func TestAllShardsFailed(t *testing.T) {
	boom := errors.New("boom")
	r := mustRouter(t, []Shard{&stubShard{err: boom}, &stubShard{err: boom}}, testOpts())
	_, err := r.Search(context.Background(), "q", 3)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want wrapped shard error, got %v", err)
	}
}

func TestParentContextCancelled(t *testing.T) {
	r := mustRouter(t, []Shard{&stubShard{matches: []core.Match{m(0, 1)}}}, testOpts())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Search(ctx, "q", 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestHedging(t *testing.T) {
	// Warm the latency window with fast queries, then make the shard slow:
	// a hedge must launch after the (floored) p95 and its result must win.
	slow := &stubShard{matches: []core.Match{m(0, 1)}}
	opts := testOpts()
	opts.Hedge = true
	opts.CacheSize = 0
	reg := obs.NewRegistry()
	opts.Registry = reg
	r := mustRouter(t, []Shard{slow}, opts)

	const warm = 16
	for i := 0; i < warm; i++ {
		if _, err := r.Search(context.Background(), fmt.Sprintf("warm-%d", i), 1); err != nil {
			t.Fatalf("warm search: %v", err)
		}
	}
	slow.delay = 200 * time.Millisecond
	// The hedge is equally slow, but it must at least fire.
	res, err := r.Search(context.Background(), "slow", 1)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res.Hedged != 1 {
		t.Fatalf("hedged = %d, want 1", res.Hedged)
	}
	if slow.callCount() != warm+2 {
		t.Fatalf("shard saw %d calls, want %d (warm-up + primary + hedge)", slow.callCount(), warm+2)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricHedges] != 1 {
		t.Errorf("hedge counter = %d, want 1", snap.Counters[MetricHedges])
	}
	if r.Stats().Shards[0].Hedges != 1 {
		t.Errorf("shard hedge stat = %d, want 1", r.Stats().Shards[0].Hedges)
	}
}

func TestCacheHitAndInvalidation(t *testing.T) {
	shard := &stubShard{matches: []core.Match{m(0, 1), m(1, 0.5)}}
	opts := testOpts()
	opts.CacheSize = 8
	reg := obs.NewRegistry()
	opts.Registry = reg
	r := mustRouter(t, []Shard{shard}, opts)

	first, err := r.Search(context.Background(), "q", 2)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if first.CacheHit {
		t.Fatal("first search must miss")
	}
	second, err := r.Search(context.Background(), "q", 2)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !second.CacheHit {
		t.Fatal("second search must hit the cache")
	}
	if shard.callCount() != 1 {
		t.Fatalf("shard saw %d calls, want 1 (second served from cache)", shard.callCount())
	}
	// Mutating the cached slice must not corrupt the cache.
	second.Matches[0].Score = -1
	third, _ := r.Search(context.Background(), "q", 2)
	if third.Matches[0].Score != 1 {
		t.Fatal("cache returned aliased slice")
	}
	// A different k is a different answer.
	if res, _ := r.Search(context.Background(), "q", 1); res.CacheHit {
		t.Fatal("k=1 must not hit the k=2 entry")
	}

	// Adding a relation invalidates everything.
	r.NoteAdd(0)
	after, err := r.Search(context.Background(), "q", 2)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if after.CacheHit {
		t.Fatal("cache must be purged after NoteAdd")
	}
	hits, misses := reg.Snapshot().Counters[MetricCacheHits], reg.Snapshot().Counters[MetricCacheMisses]
	if hits < 2 || misses < 2 {
		t.Errorf("cache counters hits=%d misses=%d; want >=2 each", hits, misses)
	}
}

func TestCachePurgedOnDeleteAndUpdate(t *testing.T) {
	shard := &stubShard{matches: []core.Match{m(0, 1), m(1, 0.5)}}
	opts := testOpts()
	opts.CacheSize = 8
	r := mustRouter(t, []Shard{shard}, opts)

	note := map[string]func(){
		"NoteDelete": func() { r.NoteDelete(0) },
		"NoteUpdate": func() { r.NoteUpdate(0) },
	}
	for name, fence := range note {
		if _, err := r.Search(context.Background(), "q", 2); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
		if res, _ := r.Search(context.Background(), "q", 2); !res.CacheHit {
			t.Fatalf("%s: warmup did not cache", name)
		}
		fence()
		res, err := r.Search(context.Background(), "q", 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CacheHit {
			t.Fatalf("cache must be purged after %s", name)
		}
	}
}

// TestMutationFencesInflightScatter: a scatter that started before a
// mutation must neither populate the result cache with its pre-mutation
// ranking nor serve as a coalescing leader for post-mutation followers —
// whether it was started by Search or by SearchBatch.
func TestMutationFencesInflightScatter(t *testing.T) {
	entries := map[string]func(*Router) error{
		"Search": func(r *Router) error {
			_, err := r.Search(context.Background(), "q", 1)
			return err
		},
		"SearchBatch": func(r *Router) error {
			_, err := r.SearchBatch(context.Background(), []BatchQuery{{"q", 1}})
			return err
		},
	}
	for name, search := range entries {
		// inflight starts a scatter, parks it inside the shard and lands a
		// mutation on it.
		inflight := func(t *testing.T) (*gatedShard, *Router, chan error) {
			shard := &gatedShard{
				stubShard: stubShard{matches: []core.Match{m(0, 1)}},
				entered:   make(chan struct{}),
				release:   make(chan struct{}),
			}
			opts := testOpts()
			opts.CacheSize = 8
			r := mustRouter(t, []Shard{shard}, opts)
			done := make(chan error, 1)
			go func() { done <- search(r) }()
			<-shard.entered
			r.NoteDelete(0)
			return shard, r, done
		}
		t.Run(name+"/cache", func(t *testing.T) {
			shard, r, done := inflight(t)
			close(shard.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := search(r); err != nil {
				t.Fatal(err)
			}
			if c := shard.callCount(); c != 2 {
				t.Fatalf("shard calls = %d, want 2 (a pre-mutation scatter must not repopulate the cache)", c)
			}
			res, err := r.Search(context.Background(), "q", 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit || shard.callCount() != 2 {
				t.Fatal("post-mutation scatter should have repopulated the cache")
			}
		})
		t.Run(name+"/coalescer", func(t *testing.T) {
			shard, r, done := inflight(t)
			follower := make(chan error, 1)
			go func() { follower <- search(r) }()
			// The follower either reaches the shard on its own or (the bug)
			// parks on the stale leader.
			for shard.inside.Load() < 2 && r.inflightWaiters() == 0 {
				runtime.Gosched()
			}
			close(shard.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := <-follower; err != nil {
				t.Fatal(err)
			}
			if c := shard.callCount(); c != 2 {
				t.Fatalf("shard calls = %d, want 2 (follower must bypass a pre-mutation leader)", c)
			}
		})
	}
}

func TestDegradedResultNotCached(t *testing.T) {
	healthy := &stubShard{matches: []core.Match{m(0, 1)}}
	failing := &stubShard{err: errors.New("down")}
	opts := testOpts()
	opts.CacheSize = 4
	r := mustRouter(t, []Shard{healthy, failing}, opts)

	res, err := r.Search(context.Background(), "q", 1)
	if err != nil || !res.Degraded {
		t.Fatalf("want degraded success, got %+v, %v", res, err)
	}
	res2, err := r.Search(context.Background(), "q", 1)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if res2.CacheHit {
		t.Fatal("degraded result must not be served from cache")
	}
}

func TestRoutePolicies(t *testing.T) {
	shards := []Shard{&stubShard{}, &stubShard{}, &stubShard{}}
	hash := mustRouter(t, shards, testOpts())
	for _, id := range []string{"a", "b", "rel-42", "customers"} {
		want := HashShard(id, 3)
		if got := hash.Route(id); got != want {
			t.Errorf("hash route(%q) = %d, want %d", id, got, want)
		}
		if got := hash.Route(id); got != want {
			t.Errorf("hash route(%q) unstable", id)
		}
	}

	opts := testOpts()
	opts.Policy = PolicyRoundRobin
	rr, err := NewRouter(shards, []int{2, 0, 1}, opts)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	// Smallest shard first, ties to the lowest index.
	if got := rr.Route("x"); got != 1 {
		t.Fatalf("rr route = %d, want 1 (smallest shard)", got)
	}
	rr.NoteAdd(1)
	if got := rr.Route("y"); got != 1 {
		t.Fatalf("rr route = %d, want 1 (tied smallest, lowest index)", got)
	}
	rr.NoteAdd(1)
	if got := rr.Route("z"); got != 2 {
		t.Fatalf("rr route = %d, want 2", got)
	}
}

func TestConcurrentSearch(t *testing.T) {
	shards := []Shard{
		&stubShard{matches: []core.Match{m(0, 0.9), m(2, 0.7)}},
		&stubShard{matches: []core.Match{m(1, 0.8), m(3, 0.6)}},
	}
	opts := testOpts()
	opts.CacheSize = 16
	opts.Hedge = true
	opts.ShardTimeout = time.Second
	r := mustRouter(t, shards, opts)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := fmt.Sprintf("q-%d", (w+i)%4)
				res, err := r.Search(context.Background(), q, 3)
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if len(res.Matches) != 3 {
					t.Errorf("got %d matches, want 3", len(res.Matches))
					return
				}
				if i%17 == 0 {
					r.NoteAdd(r.Route(fmt.Sprintf("rel-new-%d-%d", w, i)))
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Stats().Searches; got != 8*50 {
		t.Errorf("searches = %d, want %d", got, 8*50)
	}
}

func TestNewRouterValidation(t *testing.T) {
	shard := []Shard{&stubShard{}}
	if _, err := NewRouter(nil, nil, testOpts()); err == nil {
		t.Error("want error for zero shards")
	}
	if _, err := NewRouter(shard, []int{1, 2}, testOpts()); err == nil {
		t.Error("want error for count mismatch")
	}
	o := testOpts()
	o.Encode = nil
	if _, err := NewRouter(shard, []int{0}, o); err == nil {
		t.Error("want error for missing Encode")
	}
	o = testOpts()
	o.Order = nil
	if _, err := NewRouter(shard, []int{0}, o); err == nil {
		t.Error("want error for missing Order")
	}
}

func TestSearchTracedSpanTree(t *testing.T) {
	// The acceptance scenario for the tracing subsystem: a 4-shard query
	// where two shards answer promptly, one is slow enough that its hedge
	// launches, and one rides into its per-shard deadline. The recorded
	// span tree must tell the whole story — root → encode/scatter/merge,
	// one shard child per attempt under scatter with the hedge and the
	// timeout annotated, and every parent link correct.
	fast0 := &stubShard{matches: []core.Match{m(0, 0.9)}}
	fast1 := &stubShard{matches: []core.Match{m(1, 0.8)}}
	slow := &stubShard{matches: []core.Match{m(2, 0.7)}}
	stuck := &stubShard{matches: []core.Match{m(3, 0.6)}}
	opts := testOpts()
	opts.Hedge = true
	opts.ShardTimeout = 250 * time.Millisecond
	opts.CacheSize = 0
	r := mustRouter(t, []Shard{fast0, fast1, slow, stuck}, opts)

	// Warm every shard's latency window so the hedge arms at the 1ms floor,
	// then degrade shards 2 and 3.
	for i := 0; i < 16; i++ {
		if _, err := r.Search(context.Background(), fmt.Sprintf("warm-%d", i), 1); err != nil {
			t.Fatalf("warm search: %v", err)
		}
	}
	slow.delay = 100 * time.Millisecond
	stuck.block = true

	tr := obs.NewTrace()
	root := tr.StartRoot("cluster_search")
	res, err := r.SearchTraced(context.Background(), "q", 4, tr)
	root.End()
	if err != nil {
		t.Fatalf("SearchTraced: %v", err)
	}
	if !res.Degraded {
		t.Error("want Degraded=true with a timed-out shard")
	}
	if res.Hedged < 1 {
		t.Errorf("hedged = %d, want at least 1", res.Hedged)
	}
	if len(res.ShardErrors) != 1 || res.ShardErrors[0].Shard != 3 {
		t.Fatalf("shard errors = %+v, want shard 3 only", res.ShardErrors)
	}
	if !errors.Is(res.ShardErrors[0].Err, context.DeadlineExceeded) {
		t.Fatalf("shard 3 error = %v, want deadline exceeded", res.ShardErrors[0].Err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %+v, want the 3 healthy shards' results", res.Matches)
	}

	spans := tr.Spans()
	byName := make(map[string]obs.SpanRecord)
	var shardSpans []obs.SpanRecord
	for _, sp := range spans {
		if sp.Name == "shard" {
			shardSpans = append(shardSpans, sp)
		} else {
			byName[sp.Name] = sp
		}
	}
	rootRec, ok := byName["cluster_search"]
	if !ok {
		t.Fatal("root span not recorded")
	}
	if !rootRec.Parent.IsZero() {
		t.Errorf("root span has parent %s, want none", rootRec.Parent)
	}
	for _, name := range []string{"encode", "scatter", "merge"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("stage span %q not recorded", name)
		}
		if sp.Parent != rootRec.SpanID {
			t.Errorf("%s parent = %s, want root %s", name, sp.Parent, rootRec.SpanID)
		}
	}
	scatter := byName["scatter"]
	if scatter.Annotations["shards"] != "4" {
		t.Errorf("scatter shards annotation = %q, want 4", scatter.Annotations["shards"])
	}
	if byName["merge"].Annotations["matches"] != "3" {
		t.Errorf("merge matches annotation = %q, want 3", byName["merge"].Annotations["matches"])
	}

	// Per-shard attempts: shards 0 and 1 one primary each; shard 3 a
	// primary and a hedge, both timed out. (Shard 2's winning attempt is
	// always recorded; its losing twin may land late, so it is not
	// counted on.)
	attempts := make(map[string][]obs.SpanRecord) // "shard/attempt" -> spans
	for _, sp := range shardSpans {
		if sp.Parent != scatter.SpanID {
			t.Errorf("shard span parent = %s, want scatter %s", sp.Parent, scatter.SpanID)
		}
		key := sp.Annotations["shard"] + "/" + sp.Annotations["attempt"]
		attempts[key] = append(attempts[key], sp)
	}
	for _, key := range []string{"0/primary", "1/primary", "3/primary", "3/hedge"} {
		if len(attempts[key]) != 1 {
			t.Errorf("attempt %s recorded %d spans, want 1", key, len(attempts[key]))
		}
	}
	for _, key := range []string{"3/primary", "3/hedge"} {
		for _, sp := range attempts[key] {
			if sp.Annotations["timeout"] != "true" {
				t.Errorf("%s span missing timeout annotation: %v", key, sp.Annotations)
			}
			if sp.Annotations["error"] == "" {
				t.Errorf("%s span missing error annotation", key)
			}
		}
	}
	if len(attempts["2/primary"])+len(attempts["2/hedge"]) < 1 {
		t.Error("slow shard recorded no attempt spans")
	}
}
