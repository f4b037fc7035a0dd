package netcluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// gateBackend holds its first search until release is closed.
type gateBackend struct {
	fakeBackend
	first            atomic.Bool
	entered, release chan struct{}
}

func (g *gateBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	if g.first.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return g.fakeBackend.SearchEncodedBatch(ctx, qs, ks, costs)
}

// TestStreamCancelledExchangeIsNotPooled: a search whose context ends while
// the shard runs it closes its stream. The shard answers the abandoned
// search later; were the stream pooled, the next call on the same Client
// would read that stale answer (3 matches) as its own (5).
func TestStreamCancelledExchangeIsNotPooled(t *testing.T) {
	backend := &gateBackend{fakeBackend: fakeBackend{matches: rankedMatches(0, 8)},
		entered: make(chan struct{}), release: make(chan struct{})}
	h := NewShardHandler(backend, nil, nil, 0)
	cl := NewClient(serveStreams(t, h, h).URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-backend.entered
		cancel()
	}()
	if _, _, _, err := cl.SearchEncoded(ctx, testVec, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: %v, want context.Canceled", err)
	}
	close(backend.release)
	ms, _, _, err := cl.SearchEncoded(context.Background(), testVec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := backend.matches[:5]; !reflect.DeepEqual(ms, want) {
		t.Fatalf("the call after a cancelled one answered %+v, want %+v", ms, want)
	}
	if n := len(cl.idle); n != 1 {
		t.Errorf("%d pooled streams, want 1 (the fresh one)", n)
	}
}

// TestStreamKilledReplicaFailsOver: a replica killed while the coordinator
// holds pooled streams to it — its server and its streams closed, as its
// process ending would — costs errors on that replica and nothing else:
// every search answers from the survivor and the set never goes down.
func TestStreamKilledReplicaFailsOver(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	var (
		urls     []string
		servers  []*httptest.Server
		handlers []*ShardHandler
	)
	for i := 0; i < 2; i++ {
		h := NewShardHandler(backend, nil, nil, 0)
		srv := serveStreams(t, h, h)
		urls, servers, handlers = append(urls, srv.URL), append(servers, srv), append(handlers, h)
	}
	g, err := NewGroup(0, urls, func(u string) *Client { return NewClient(u, nil) }, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	search := func() {
		t.Helper()
		ms, err := g.SearchEncoded(context.Background(), testVec, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms, backend.matches[:4]) {
			t.Fatalf("answer %+v", ms)
		}
	}
	for i := 0; i < 4; i++ { // both replicas now hold a pooled stream
		search()
	}
	if n := len(g.clients[0].idle); n != 1 {
		t.Fatalf("replica 0 pools %d streams before the kill, want 1", n)
	}
	servers[0].Close()
	handlers[0].Close()
	for i := 0; i < 8; i++ {
		search()
	}
	st := g.Stats()
	if st.Replicas[0].Errors == 0 {
		t.Error("the killed replica recorded no error")
	}
	if st.SetDown != 0 {
		t.Errorf("set down %d times with a live survivor", st.SetDown)
	}
}

// barrierBackend holds searches until n of them are running at once.
type barrierBackend struct {
	fakeBackend
	n       int
	mu      sync.Mutex
	entered int
	all     chan struct{}
}

func (b *barrierBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	b.mu.Lock()
	if b.entered++; b.entered == b.n {
		close(b.all)
	}
	b.mu.Unlock()
	<-b.all
	return b.fakeBackend.SearchEncodedBatch(ctx, qs, ks, costs)
}

// TestStreamPoolCap: twice the pool's cap of concurrent searches dials a
// stream each; afterwards the client pools maxIdleStreams of them and the
// shard serves no more than that, and sequential searches reuse them.
func TestStreamPoolCap(t *testing.T) {
	const n = 2 * maxIdleStreams
	backend := &barrierBackend{fakeBackend: fakeBackend{matches: rankedMatches(0, 8)}, n: n, all: make(chan struct{})}
	h := NewShardHandler(backend, nil, nil, 0)
	cl := NewClient(serveStreams(t, h, h).URL, nil)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, _, errs[i] = cl.SearchEncoded(context.Background(), testVec, 3)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	if got := len(cl.idle); got != maxIdleStreams {
		t.Fatalf("%d pooled streams, want the cap %d", got, maxIdleStreams)
	}
	served := func() int {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.streams)
	}
	deadline := time.Now().Add(5 * time.Second)
	for served() > maxIdleStreams && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := served(); got != maxIdleStreams {
		t.Fatalf("the shard serves %d streams, want %d", got, maxIdleStreams)
	}
	for i := 0; i < n; i++ {
		if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := served(); got != maxIdleStreams {
		t.Errorf("sequential searches left the shard serving %d streams, want %d", got, maxIdleStreams)
	}
}

// deadlineBackend records whether a search ran under a deadline.
type deadlineBackend struct {
	fakeBackend
	left atomic.Int64 // time left at the last search, ns; -1 without a deadline
}

func (d *deadlineBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	left := int64(-1)
	if dl, ok := ctx.Deadline(); ok {
		left = int64(time.Until(dl))
	}
	d.left.Store(left)
	return d.fakeBackend.SearchEncodedBatch(ctx, qs, ks, costs)
}

// TestStreamDeadlineBudget: a search carries what is left of its
// context's deadline, and the shard runs it under that budget; a budget
// already spent when the frame is read answers 503 unavailable without
// running the search.
func TestStreamDeadlineBudget(t *testing.T) {
	backend := &deadlineBackend{fakeBackend: fakeBackend{matches: rankedMatches(0, 8)}}
	h := NewShardHandler(backend, nil, nil, 0)
	srv := serveStreams(t, h, h)
	cl := NewClient(srv.URL, nil)
	if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatal(err)
	}
	if left := backend.left.Load(); left != -1 {
		t.Errorf("a search without a deadline ran under one (%v left)", time.Duration(left))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, _, err := cl.SearchEncoded(ctx, testVec, 3); err != nil {
		t.Fatal(err)
	}
	if left := time.Duration(backend.left.Load()); left <= 0 || left > time.Minute {
		t.Errorf("a search with a minute left ran with %v left", left)
	}

	calls := backend.calls.Load()
	env, err := appendEnvelope(nil, obs.SpanContext{}, 1, [][]float32{testVec}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	st := dialStream(t, srv.URL)
	if status, body := st.send(env); status != http.StatusServiceUnavailable {
		t.Errorf("a spent budget: status %d, want 503: %s", status, body)
	}
	if backend.calls.Load() != calls {
		t.Error("a spent budget reached the backend")
	}
}

// TestStreamClosedWhileIdleIsReplaced: a shard that closes the streams a
// client has pooled (a restart) costs the client no failed search: the
// dead stream is dropped and the search goes on over a fresh one.
func TestStreamClosedWhileIdleIsReplaced(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	var current atomic.Pointer[ShardHandler]
	current.Store(NewShardHandler(backend, nil, nil, 0))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		current.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		current.Load().Close()
	})
	cl := NewClient(srv.URL, nil)
	if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatal(err)
	}
	old := current.Swap(NewShardHandler(backend, nil, nil, 0))
	old.Close()
	for {
		old.mu.Lock()
		n := len(old.streams)
		old.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ms, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
	if err != nil {
		t.Fatalf("the search after the shard closed the pooled stream: %v", err)
	}
	if !reflect.DeepEqual(ms, backend.matches[:3]) {
		t.Fatalf("answer %+v", ms)
	}
}
