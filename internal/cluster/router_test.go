package cluster

import (
	"context"
	"errors"
	"fmt"
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
	// One shard fails on a deadline of its own — a replica set whose every
	// attempt timed out — while the query's context is live: the query
	// must come back degraded with the healthy shard's results, and the
	// failure must count as that shard's timeout.
	healthy := &stubShard{matches: []core.Match{m(0, 0.9), m(1, 0.8)}}
	timedOut := &stubShard{err: fmt.Errorf("set down: %w", context.DeadlineExceeded)}
	r := mustRouter(t, []Shard{healthy, timedOut}, testOpts())

	res, err := r.Search(context.Background(), "q", 2)
	if err != nil {
		t.Fatalf("search: %v", err)
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
	if st.Shards[1].Timeouts != 1 || st.Shards[1].Errors != 1 {
		t.Errorf("shard 1 timeouts = %d errors = %d, want 1 each", st.Shards[1].Timeouts, st.Shards[1].Errors)
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

func TestConcurrentSearch(t *testing.T) {
	shards := []Shard{
		&stubShard{matches: []core.Match{m(0, 0.9), m(2, 0.7)}},
		&stubShard{matches: []core.Match{m(1, 0.8), m(3, 0.6)}},
	}
	r := mustRouter(t, shards, testOpts())

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
					r.NoteAdd(w % len(shards))
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
	// A 4-shard query where three shards answer promptly and one fails on
	// its own deadline. The recorded span tree must tell the whole story —
	// root → encode/scatter/merge, one shard child per shard under scatter
	// with the timeout annotated, and every parent link correct.
	fast0 := &stubShard{matches: []core.Match{m(0, 0.9)}}
	fast1 := &stubShard{matches: []core.Match{m(1, 0.8)}}
	fast2 := &stubShard{matches: []core.Match{m(2, 0.7)}}
	timedOut := &stubShard{err: fmt.Errorf("set down: %w", context.DeadlineExceeded)}
	r := mustRouter(t, []Shard{fast0, fast1, fast2, timedOut}, testOpts())

	tr := obs.NewTrace()
	root := tr.StartRoot("coordinator_search")
	res, err := r.SearchTraced(context.Background(), "q", 4, tr)
	root.End()
	if err != nil {
		t.Fatalf("SearchTraced: %v", err)
	}
	if !res.Degraded {
		t.Error("want Degraded=true with a timed-out shard")
	}
	if len(res.ShardErrors) != 1 || res.ShardErrors[0].Shard != 3 {
		t.Fatalf("shard errors = %+v, want shard 3 only", res.ShardErrors)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %+v, want the 3 healthy shards' results", res.Matches)
	}

	byName := make(map[string]obs.SpanRecord)
	byShard := make(map[string][]obs.SpanRecord)
	for _, sp := range tr.Spans() {
		if sp.Name == "shard" {
			byShard[sp.Annotations["shard"]] = append(byShard[sp.Annotations["shard"]], sp)
		} else {
			byName[sp.Name] = sp
		}
	}
	rootRec, ok := byName["coordinator_search"]
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
	if scatter.Annotations["shards"] != "4" || scatter.Annotations["failed_shards"] != "1" {
		t.Errorf("scatter annotations = %v, want shards 4, failed_shards 1", scatter.Annotations)
	}
	if byName["merge"].Annotations["matches"] != "3" {
		t.Errorf("merge matches annotation = %q, want 3", byName["merge"].Annotations["matches"])
	}

	for _, shard := range []string{"0", "1", "2", "3"} {
		spans := byShard[shard]
		if len(spans) != 1 {
			t.Fatalf("shard %s recorded %d spans, want 1", shard, len(spans))
		}
		if spans[0].Parent != scatter.SpanID {
			t.Errorf("shard %s span parent = %s, want scatter %s", shard, spans[0].Parent, scatter.SpanID)
		}
	}
	if a := byShard["3"][0].Annotations; a["timeout"] != "true" || a["error"] == "" {
		t.Errorf("timed-out shard's span annotations = %v, want timeout and error", a)
	}
}
