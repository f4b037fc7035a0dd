package netcluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// fakeBackend is a deterministic ShardBackend: it answers every encoded
// query with a fixed descending ranking, so wire round-trips and failover
// races can be checked for exact equality without building an index.
type fakeBackend struct {
	matches []core.Match
	calls   atomic.Int64
	lastK   atomic.Int64 // the k of the latest search
}

func (f *fakeBackend) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	f.calls.Add(1)
	f.lastK.Store(int64(k))
	if k > len(f.matches) {
		k = len(f.matches)
	}
	out := make([]core.Match, k)
	copy(out, f.matches[:k])
	return out, nil
}

func (f *fakeBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	out := make([][]core.Match, len(qs))
	for i := range qs {
		ms, err := f.SearchEncoded(ctx, qs[i], ks[i])
		if err != nil {
			return nil, err
		}
		out[i] = ms
	}
	return out, nil
}

// rankedMatches builds n matches with strictly descending, awkward float32
// scores — fractions without short decimal forms, so JSON round-trip
// equality is a real check, not a formatting accident.
func rankedMatches(set, n int) []core.Match {
	out := make([]core.Match, n)
	for i := range out {
		out[i] = core.Match{
			RelationID: fmt.Sprintf("rel-%d-%02d", set, i),
			Score:      float32(1 / (1.1 + 0.37*float64(set*n+i))),
		}
	}
	return out
}

var testVec = []float32{0.25, -0.5, 1}

type groupFixture struct {
	group   *Group
	inj     *FaultInjector
	urls    []string
	backend *fakeBackend
}

// newGroupFixture stands up one replica set: `replicas` loopback servers
// all serving the same fake backend, a shared fault-injecting transport,
// and a Group over them. Fresh per test, so the rotating primary always
// starts at replica 0.
func newGroupFixture(t *testing.T, replicas int, opts GroupOptions) *groupFixture {
	t.Helper()
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, nil, 0)
	inj := NewFaultInjector(nil)
	urls := make([]string, replicas)
	for i := range urls {
		urls[i] = serveStreams(t, h, h).URL
	}
	g, err := NewGroup(0, urls, func(u string) *Client { return NewClient(u, inj) }, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &groupFixture{group: g, inj: inj, urls: urls, backend: backend}
}

func TestGroupHealthySearch(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	ms, err := fx.group.SearchEncoded(context.Background(), testVec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := fx.backend.matches[:4]; !reflect.DeepEqual(ms, want) {
		t.Fatalf("matches = %+v, want %+v", ms, want)
	}
}

// TestGroupHungReplicaFailsOver is the wedged-server case: the replica
// accepted the connection and went silent, so only the per-attempt timeout
// can unblock the search, and the next replica must answer.
func TestGroupHungReplicaFailsOver(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{AttemptTimeout: 75 * time.Millisecond})
	fx.inj.Set(fx.urls[0], Fault{Hang: true, Remaining: -1})
	ms, err := fx.group.SearchEncoded(context.Background(), testVec, 3)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if !reflect.DeepEqual(ms, fx.backend.matches[:3]) {
		t.Fatalf("failover answer wrong: %+v", ms)
	}
	st := fx.group.Stats()
	if st.Replicas[0].Errors == 0 {
		t.Error("hung replica recorded no error")
	}
	if st.Retries == 0 {
		t.Error("failover recorded no retry")
	}
}

// TestGroupMalformedResponseFailsOver: a replica answering 200 with a
// truncated body is broken, not the request — the search must fail over.
func TestGroupMalformedResponseFailsOver(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	fx.inj.Set(fx.urls[0], Fault{Truncate: true, Remaining: -1})
	ms, err := fx.group.SearchEncoded(context.Background(), testVec, 3)
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if !reflect.DeepEqual(ms, fx.backend.matches[:3]) {
		t.Fatalf("failover answer wrong: %+v", ms)
	}
	if st := fx.group.Stats(); st.Replicas[0].Errors == 0 {
		t.Error("malformed replica recorded no error")
	}
}

func TestGroupWholeSetDown(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	for _, u := range fx.urls {
		fx.inj.Set(u, Fault{Drop: true, Remaining: -1})
	}
	_, err := fx.group.SearchEncoded(context.Background(), testVec, 3)
	if err == nil {
		t.Fatal("want error with every replica down")
	}
	if !strings.Contains(err.Error(), "replica set 0 down") {
		t.Fatalf("error %q does not name the downed set", err)
	}
	if st := fx.group.Stats(); st.SetDown != 1 {
		t.Errorf("SetDown = %d, want 1", st.SetDown)
	}
	// Recovery: clearing the faults restores the set without rebuilding it.
	for _, u := range fx.urls {
		fx.inj.Clear(u)
	}
	if _, err := fx.group.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

// TestGroupNonRetryableFailsFast: a 4xx means the request itself is bad;
// trying the next replica would just answer the same, so the race must
// return immediately without a retry.
func TestGroupNonRetryableFailsFast(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	fx.inj.Set(fx.urls[0], Fault{Status: 400, Remaining: -1})
	_, err := fx.group.SearchEncoded(context.Background(), testVec, 3)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 400 {
		t.Fatalf("want a 400 *RemoteError, got %v", err)
	}
	st := fx.group.Stats()
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (fail fast)", st.Retries)
	}
	if st.Replicas[1].Attempts != 0 {
		t.Errorf("replica 1 saw %d attempts, want 0", st.Replicas[1].Attempts)
	}
}

func TestGroupBatchFailover(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	fx.inj.Set(fx.urls[0], Fault{Drop: true, Remaining: -1})
	qs := [][]float32{testVec, testVec, testVec}
	ks := []int{1, 3, 5}
	costs := []*obs.Cost{{}, {}, {}}
	out, err := fx.group.SearchEncodedBatch(context.Background(), qs, ks, costs)
	if err != nil {
		t.Fatalf("batch failover: %v", err)
	}
	if len(out) != len(qs) {
		t.Fatalf("%d results for %d queries", len(out), len(qs))
	}
	for i, k := range ks {
		if !reflect.DeepEqual(out[i], fx.backend.matches[:k]) {
			t.Fatalf("batch item %d wrong: %+v", i, out[i])
		}
	}
}

// TestGroupTraceGrafting: the winning replica's shard-side span tree must
// come back over the wire and land in the trace the context carries, under
// the same trace ID the coordinator propagated.
func TestGroupTraceGrafting(t *testing.T) {
	fx := newGroupFixture(t, 2, GroupOptions{})
	tr := obs.NewTrace()
	root := tr.StartRoot("test_root")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	ctx = obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: tr.ID(), SpanID: root.ID(), Flags: tr.Flags()})
	if _, err := fx.group.SearchEncoded(ctx, testVec, 3); err != nil {
		t.Fatal(err)
	}
	root.End()
	var found bool
	for _, sp := range tr.Spans() {
		if sp.Name == "shard_encoded_search" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard_encoded_search span grafted; spans: %+v", tr.Spans())
	}
}

// TestGroupConcurrentSearches drives the failover loop from many
// goroutines with a straggling replica and a dead one — the -race run of
// this test is the point, not the assertions.
func TestGroupConcurrentSearches(t *testing.T) {
	fx := newGroupFixture(t, 3, GroupOptions{AttemptTimeout: 2 * time.Second})
	fx.inj.Set(fx.urls[1], Fault{Latency: 10 * time.Millisecond, Remaining: -1})
	fx.inj.Set(fx.urls[2], Fault{Drop: true, Remaining: -1})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := fx.group.SearchEncoded(context.Background(), testVec, 3); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent search: %v", err)
	}
}

// TestFailover drives the Group's failover loop through every transition
// against a scripted attempt function; the Group tests above check its
// wiring to replicas, this table checks the loop.
func TestFailover(t *testing.T) {
	var (
		errA     = errors.New("a")
		errB     = errors.New("b")
		errFinal = errors.New("bad request")
	)
	// step scripts attempt n: wait (honouring the attempt's context), then
	// fail with err or answer.
	type step struct {
		wait time.Duration
		err  error
	}
	const slow = 400 * time.Millisecond // far past every timeout and back-off used below
	cases := []struct {
		name        string
		policy      failover
		script      []step
		cancelAfter time.Duration
		wantErr     error
		attempts    int
		samples     int // successful attempts the window gained
		atLeast     time.Duration
		atMost      time.Duration
	}{
		{name: "inline single attempt",
			policy: failover{targets: 2}, script: []step{{}},
			attempts: 1, samples: 1},
		{name: "a final error ends the call",
			policy: failover{targets: 3, backoffBase: time.Millisecond, backoffMax: time.Millisecond,
				final: func(err error) bool { return errors.Is(err, errFinal) }},
			script:  []step{{err: errFinal}},
			wantErr: errFinal, attempts: 1},
		{name: "back-off failover across 3 targets",
			policy:   failover{targets: 3, backoffBase: 4 * time.Millisecond, backoffMax: 6 * time.Millisecond},
			script:   []step{{err: errA}, {err: errB}, {}},
			attempts: 3, samples: 1, atLeast: 10 * time.Millisecond},
		{name: "every target fails: the last error",
			policy:  failover{targets: 2, backoffBase: time.Millisecond, backoffMax: time.Millisecond},
			script:  []step{{err: errA}, {err: errB}},
			wantErr: errB, attempts: 2},
		{name: "ctx dies during back-off",
			policy: failover{targets: 2, backoffBase: slow, backoffMax: slow}, script: []step{{err: errA}},
			cancelAfter: 10 * time.Millisecond,
			wantErr:     context.Canceled, attempts: 1, atMost: slow / 2},
		{name: "the attempt timeout fails over",
			policy:   failover{targets: 2, attemptTimeout: 10 * time.Millisecond, backoffBase: time.Millisecond, backoffMax: time.Millisecond},
			script:   []step{{wait: slow}, {}},
			attempts: 2, samples: 1, atMost: slow / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &cluster.Window{}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter > 0 {
				time.AfterFunc(tc.cancelAfter, cancel)
			}
			var seen []int
			start := time.Now()
			_, attempts, err := tc.policy.run(ctx, w, func(actx context.Context, n int) (reply, error) {
				seen = append(seen, n)
				select {
				case <-time.After(tc.script[n].wait):
				case <-actx.Done():
					return reply{}, actx.Err()
				}
				return reply{}, tc.script[n].err
			})
			elapsed := time.Since(start)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if attempts != tc.attempts || len(seen) != tc.attempts {
				t.Errorf("attempts = %d, ran %v, want %d", attempts, seen, tc.attempts)
			}
			for i, n := range seen {
				if n != i {
					t.Errorf("attempts ran in order %v, want 0, 1, …", seen)
					break
				}
			}
			if tc.atLeast > 0 && elapsed < tc.atLeast {
				t.Errorf("returned after %v, want at least %v", elapsed, tc.atLeast)
			}
			if tc.atMost > 0 && elapsed > tc.atMost {
				t.Errorf("returned after %v, want at most %v", elapsed, tc.atMost)
			}
			if got := w.Quantile(1) > 0; got != (tc.samples > 0) {
				t.Errorf("window holds a sample: %v, want %v", got, tc.samples > 0)
			}
		})
	}
}
