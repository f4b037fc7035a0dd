package netcluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"semdisco/internal/cluster"
)

// writeLog records the mutations one replica server received.
type writeLog struct {
	mu  sync.Mutex
	ops []string
}

func (l *writeLog) add(op string) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *writeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// globalOrder is the merge tie-break for rankedMatches IDs ("rel-<set>-<i>"
// maps to set*100+i), mirroring the insertion order a real federation
// would carry.
func globalOrder(id string) int {
	var set, i int
	if _, err := fmt.Sscanf(id, "rel-%d-%d", &set, &i); err == nil {
		return set*100 + i
	}
	return 1 << 30
}

type coordFixture struct {
	coord    *Coordinator
	inj      *FaultInjector
	urls     [][]string
	backends []*fakeBackend
	logs     [][]*writeLog
}

// newCoordFixture stands up sets×replicas replica servers — each serving
// its set's fake backend over the wire protocol plus logging write
// endpoints — behind one fault-injecting transport and a Coordinator.
func newCoordFixture(t *testing.T, sets, replicas int, opts CoordinatorOptions) *coordFixture {
	t.Helper()
	fx := &coordFixture{inj: NewFaultInjector(nil)}
	for s := 0; s < sets; s++ {
		backend := &fakeBackend{matches: rankedMatches(s, 10)}
		fx.backends = append(fx.backends, backend)
		h := NewShardHandler(backend, nil, nil, 0)
		var urls []string
		var logs []*writeLog
		for r := 0; r < replicas; r++ {
			log := &writeLog{}
			mux := http.NewServeMux()
			mux.Handle(PathSearchStream, h)
			mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
				log.add("add")
				w.WriteHeader(http.StatusCreated)
			})
			mux.HandleFunc("DELETE /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
				log.add("delete " + r.PathValue("id"))
			})
			mux.HandleFunc("PUT /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
				log.add("update " + r.PathValue("id"))
			})
			urls = append(urls, serveStreams(t, mux, h).URL)
			logs = append(logs, log)
		}
		fx.urls = append(fx.urls, urls)
		fx.logs = append(fx.logs, logs)
	}
	if opts.Encode == nil {
		opts.Encode = func(string) []float32 { return testVec }
	}
	if opts.Order == nil {
		opts.Order = globalOrder
	}
	opts.Transport = fx.inj
	coord, err := NewCoordinator(fx.urls, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	fx.coord = coord
	return fx
}

func TestCoordinatorValidation(t *testing.T) {
	enc := func(string) []float32 { return testVec }
	ord := func(string) int { return 0 }
	if _, err := NewCoordinator(nil, nil, CoordinatorOptions{Encode: enc, Order: ord}); err == nil {
		t.Error("want error for zero replica sets")
	}
	if _, err := NewCoordinator([][]string{{"http://x"}}, nil, CoordinatorOptions{Order: ord}); err == nil {
		t.Error("want error for missing Encode")
	}
	if _, err := NewCoordinator([][]string{{"http://x"}}, nil, CoordinatorOptions{Encode: enc}); err == nil {
		t.Error("want error for missing Order")
	}
	if _, err := NewCoordinator([][]string{{}}, nil, CoordinatorOptions{Encode: enc, Order: ord}); err == nil {
		t.Error("want error for an empty replica set")
	}
}

// TestCoordinatorMatchesRouter is the wire layer's correctness invariant:
// the networked merge over replica servers must be bit-identical — IDs,
// order, and float32 scores — to an in-process Router over the same
// backends.
func TestCoordinatorMatchesRouter(t *testing.T) {
	fx := newCoordFixture(t, 3, 2, CoordinatorOptions{})
	shards := make([]cluster.Shard, len(fx.backends))
	counts := make([]int, len(fx.backends))
	for i, b := range fx.backends {
		shards[i] = b
		counts[i] = len(b.matches)
	}
	router, err := cluster.NewRouter(shards, counts, cluster.Options{
		Method: "ExS",
		Encode: func(string) []float32 { return testVec },
		Order:  globalOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 3, 5, 10, 30} {
		want, err := router.Search(ctx, "q", k)
		if err != nil {
			t.Fatalf("k=%d router: %v", k, err)
		}
		got, err := fx.coord.Search(ctx, "q", k, nil)
		if err != nil {
			t.Fatalf("k=%d coordinator: %v", k, err)
		}
		if got.Degraded {
			t.Fatalf("k=%d: degraded with no faults: %v", k, got.ShardErrors)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("k=%d:\nwire   %+v\nrouter %+v", k, got.Matches, want.Matches)
		}
	}
}

// TestCoordinatorFetchWidth: over exact sets the coordinator asks each set
// for k, otherwise for k plus the router's approximate slack of 8 — the
// width an in-process Router over the same backends asks for — and the two
// merges stay bit-identical at either width.
func TestCoordinatorFetchWidth(t *testing.T) {
	ctx := context.Background()
	for _, exact := range []bool{true, false} {
		fx := newCoordFixture(t, 3, 2, CoordinatorOptions{Exact: exact})
		shards := make([]cluster.Shard, len(fx.backends))
		counts := make([]int, len(fx.backends))
		for i, b := range fx.backends {
			shards[i] = b
			counts[i] = len(b.matches)
		}
		router, err := cluster.NewRouter(shards, counts, cluster.Options{
			Exact:  exact,
			Encode: func(string) []float32 { return testVec },
			Order:  globalOrder,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 5, 10, 30} {
			wantK := k
			if !exact {
				wantK += 8
			}
			want, err := router.Search(ctx, "q", k)
			if err != nil {
				t.Fatalf("exact=%v k=%d router: %v", exact, k, err)
			}
			if got := fx.backends[0].lastK.Load(); got != int64(wantK) {
				t.Fatalf("exact=%v k=%d: the router asks a shard for %d, want %d", exact, k, got, wantK)
			}
			got, err := fx.coord.Search(ctx, "q", k, nil)
			if err != nil {
				t.Fatalf("exact=%v k=%d coordinator: %v", exact, k, err)
			}
			if fetched := fx.backends[0].lastK.Load(); fetched != int64(wantK) {
				t.Fatalf("exact=%v k=%d: the coordinator asks a set for %d, want %d", exact, k, fetched, wantK)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Fatalf("exact=%v k=%d:\nwire   %+v\nrouter %+v", exact, k, got.Matches, want.Matches)
			}
		}
	}
}

// TestCoordinatorBatchMatchesSequential: the batched fan-out must answer
// each item exactly as the sequential path would.
func TestCoordinatorBatchMatchesSequential(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, CoordinatorOptions{})
	ctx := context.Background()
	items := []cluster.BatchQuery{{Query: "a", K: 3}, {Query: "b", K: 7}, {Query: "c", K: 15}}
	batch, err := fx.coord.SearchBatch(ctx, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(items) {
		t.Fatalf("%d results for %d items", len(batch), len(items))
	}
	for i, it := range items {
		want, err := fx.coord.Search(ctx, it.Query, it.K, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Matches, want.Matches) {
			t.Fatalf("item %d:\nbatch      %+v\nsequential %+v", i, batch[i].Matches, want.Matches)
		}
	}
}

// TestCoordinatorDegradedWhenSetDown: one whole replica set failing
// degrades the answer to the surviving partitions; every set failing is an
// error.
func TestCoordinatorDegradedWhenSetDown(t *testing.T) {
	fx := newCoordFixture(t, 2, 1, CoordinatorOptions{})
	ctx := context.Background()
	fx.inj.Set(fx.urls[1][0], Fault{Drop: true, Remaining: -1})
	res, err := fx.coord.Search(ctx, "q", 10, nil)
	if err != nil {
		t.Fatalf("partial degradation must not error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("want Degraded with set 1 down")
	}
	if len(res.ShardErrors) == 0 {
		t.Error("degraded result carries no shard errors")
	}
	if len(res.Matches) == 0 {
		t.Fatal("degraded result is empty")
	}
	for _, m := range res.Matches {
		if globalOrder(m.RelationID) >= 100 {
			t.Fatalf("match %s came from the downed set", m.RelationID)
		}
	}
	fx.inj.Set(fx.urls[0][0], Fault{Drop: true, Remaining: -1})
	if _, err := fx.coord.Search(ctx, "q2", 10, nil); err == nil {
		t.Fatal("want error with every set down")
	}
}

func TestCoordinatorWriteFanOut(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, CoordinatorOptions{})
	ctx := context.Background()
	rel := Relation{ID: "new-1", Source: "s", Columns: []string{"a"}, Rows: [][]string{{"x"}}}
	if err := fx.coord.Add(ctx, rel); err != nil {
		t.Fatalf("add: %v", err)
	}
	owner := fx.coord.Ring().Owner(rel.ID)
	for s := range fx.logs {
		for r, log := range fx.logs[s] {
			want := 0
			if s == owner {
				want = 1
			}
			if got := log.count(); got != want {
				t.Errorf("set %d replica %d saw %d writes, want %d", s, r, got, want)
			}
		}
	}
}

// TestCoordinatorWritePartialFailure: a mutation applied on some replicas
// of the owning set but not others must surface as *WriteError naming the
// replicas needing repair — not vanish, and not look like a clean failure.
func TestCoordinatorWritePartialFailure(t *testing.T) {
	fx := newCoordFixture(t, 1, 2, CoordinatorOptions{})
	ctx := context.Background()
	fx.inj.Set(fx.urls[0][1], Fault{Drop: true, Remaining: -1})
	rel := Relation{ID: "new-2", Source: "s", Columns: []string{"a"}, Rows: [][]string{{"x"}}}
	err := fx.coord.Add(ctx, rel)
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want *WriteError, got %v", err)
	}
	if we.Applied != 1 || we.Replicas != 2 {
		t.Errorf("applied %d/%d, want 1/2", we.Applied, we.Replicas)
	}
	if len(we.Failed) != 1 || we.Failed[0] != fx.urls[0][1] {
		t.Errorf("Failed = %v, want [%s]", we.Failed, fx.urls[0][1])
	}
	if fx.logs[0][0].count() != 1 || fx.logs[0][1].count() != 0 {
		t.Errorf("replica write counts %d/%d, want 1/0",
			fx.logs[0][0].count(), fx.logs[0][1].count())
	}

	// Every replica failing is a plain error, not a partial WriteError.
	fx.inj.Set(fx.urls[0][0], Fault{Drop: true, Remaining: -1})
	err = fx.coord.Delete(ctx, "new-2")
	if err == nil {
		t.Fatal("want error with every replica down")
	}
	if errors.As(err, &we) {
		t.Fatalf("total failure must not be a *WriteError: %v", err)
	}

	// Recovery: a cleared transport applies the write everywhere.
	fx.inj.Clear(fx.urls[0][0])
	fx.inj.Clear(fx.urls[0][1])
	if err := fx.coord.Update(ctx, rel); err != nil {
		t.Fatalf("update after recovery: %v", err)
	}
}

// TestCoordinatorHungReplicaTail: end-to-end, a wedged replica must cost
// at most the attempt timeout, never hang the query.
func TestCoordinatorHungReplicaTail(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, CoordinatorOptions{AttemptTimeout: 100 * time.Millisecond})
	fx.inj.Set(fx.urls[0][0], Fault{Hang: true, Remaining: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := fx.coord.Search(ctx, "q", 10, nil)
	if err != nil {
		t.Fatalf("search with a hung replica: %v", err)
	}
	if res.Degraded {
		t.Fatal("one hung replica of two must not degrade the set")
	}
}
