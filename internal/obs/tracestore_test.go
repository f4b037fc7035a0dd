package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func finishedTrace(t *testing.T) *Trace {
	t.Helper()
	tr := NewTrace()
	root := tr.StartRoot("search")
	tr.StartSpan("encode").End()
	root.End()
	return tr
}

func TestTraceStoreKindPrecedence(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{LatencyThreshold: time.Second})
	cases := []struct {
		name string
		o    TraceOutcome
		want string
	}{
		{"error beats degraded", TraceOutcome{Err: "boom", Degraded: true, Duration: 2 * time.Second}, "error"},
		{"degraded beats slow", TraceOutcome{Degraded: true, Duration: 2 * time.Second}, "degraded"},
		{"shard errors imply degraded", TraceOutcome{ShardErrors: []string{"shard 1: x"}}, "degraded"},
		{"slow", TraceOutcome{Duration: 2 * time.Second}, "slow"},
	}
	for _, c := range cases {
		kept, kind := s.Offer(finishedTrace(t), c.o)
		if !kept || kind != c.want {
			t.Errorf("%s: kept=%v kind=%q, want kept kind %q", c.name, kept, kind, c.want)
		}
	}
	// Uninteresting outcome with no head sampling: dropped.
	kept, kind := s.Offer(finishedTrace(t), TraceOutcome{Duration: time.Millisecond})
	if kept || kind != "" {
		t.Errorf("uninteresting offer kept=%v kind=%q, want dropped", kept, kind)
	}
}

func TestTraceStoreHeadSample(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{HeadSampleEvery: 4})
	var sampled int
	for i := 0; i < 16; i++ {
		kept, kind := s.Offer(finishedTrace(t), TraceOutcome{Duration: time.Microsecond})
		if kept {
			if kind != "sampled" {
				t.Errorf("head-sampled trace kind = %q, want sampled", kind)
			}
			sampled++
		}
	}
	if sampled != 4 {
		t.Errorf("sampled %d of 16 at 1-in-4, want 4", sampled)
	}
}

func TestTraceStoreEvictionOrder(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 4})
	var ids []string
	for i := 0; i < 7; i++ {
		tr := finishedTrace(t)
		ids = append(ids, tr.ID().String())
		if kept, _ := s.Offer(tr, TraceOutcome{Err: fmt.Sprintf("e%d", i)}); !kept {
			t.Fatalf("offer %d not kept", i)
		}
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Evicted() != 3 {
		t.Errorf("Evicted = %d, want 3", s.Evicted())
	}
	// Oldest three are gone, newest four remain, and byID agrees.
	for i, id := range ids {
		_, ok := s.Get(id)
		if want := i >= 3; ok != want {
			t.Errorf("Get(%s) (offer %d) = %v, want %v", id, i, ok, want)
		}
	}
	// List is newest first.
	list := s.List(0)
	if len(list) != 4 {
		t.Fatalf("List returned %d traces, want 4", len(list))
	}
	for i, st := range list {
		if want := ids[len(ids)-1-i]; st.TraceID != want {
			t.Errorf("List[%d] = %s, want %s", i, st.TraceID, want)
		}
	}
}

// TestTraceStoreGetAfterReusedID: a retry may reuse its traceparent, so one
// trace ID can be offered twice. Evicting the older copy must leave the
// newer one retrievable.
func TestTraceStoreGetAfterReusedID(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 3})
	x, y, z := NewTraceID(), NewTraceID(), NewTraceID()
	for _, id := range []TraceID{x, y, x, z} { // the fourth offer evicts the first X
		tr := NewTraceWith(id, NewSpanID(), FlagSampled)
		tr.StartRoot("search").End()
		if kept, _ := s.Offer(tr, TraceOutcome{Err: "x"}); !kept {
			t.Fatalf("offer of %s not kept", id)
		}
	}
	for _, id := range []TraceID{x, y, z} {
		if _, ok := s.Get(id.String()); !ok {
			t.Errorf("Get(%s) missed a trace List still holds", id)
		}
	}
}

func TestTraceStoreSlowest(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	ids := make(map[time.Duration]string)
	for _, d := range []time.Duration{3, 9, 1, 7, 5, 7} {
		tr := finishedTrace(t)
		ids[d] = tr.ID().String() // the later 7 overwrites: ties rank newest first
		s.Offer(tr, TraceOutcome{Err: "x", Duration: d * time.Millisecond})
	}
	top := s.Slowest(3)
	if len(top) != 3 {
		t.Fatalf("Slowest(3) returned %d traces", len(top))
	}
	for i, d := range []time.Duration{9, 7, 7} {
		if top[i].DurationMS != float64(d) {
			t.Errorf("slowest[%d] ran %vms, want %dms", i, top[i].DurationMS, d)
		}
	}
	if top[1].TraceID != ids[7] {
		t.Errorf("tie broken oldest first: slowest[1] = %s, want the newer %s", top[1].TraceID, ids[7])
	}
	if all := s.Slowest(0); len(all) != 6 {
		t.Errorf("Slowest(0) returned %d traces, want 6", len(all))
	}
}

// TestTraceStoreCostliest: the costliest view ranks by the cost each
// outcome carried, not by duration, and breaks ties newest first.
func TestTraceStoreCostliest(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	var ids []string
	for i, c := range []int64{30, 10, 90, 50, 50, 20} {
		tr := finishedTrace(t)
		ids = append(ids, tr.ID().String())
		// Durations fall as costs rise, so a duration sort ranks 90 last.
		s.Offer(tr, TraceOutcome{Err: "x", Cost: c, Duration: time.Duration(10-i) * time.Millisecond})
	}
	top := s.Costliest(3)
	if len(top) != 3 {
		t.Fatalf("Costliest(3) returned %d traces", len(top))
	}
	for i, c := range []int64{90, 50, 50} {
		if top[i].Cost != c {
			t.Errorf("costliest[%d] cost %d, want %d", i, top[i].Cost, c)
		}
	}
	if top[1].TraceID != ids[4] {
		t.Errorf("tie broken oldest first: costliest[1] = %s, want the newer %s", top[1].TraceID, ids[4])
	}
	if all := s.Costliest(0); len(all) != 6 {
		t.Errorf("Costliest(0) returned %d traces, want 6", len(all))
	}
}

func TestSamplerRate(t *testing.T) {
	s := NewSampler(3)
	var hits int
	for i := 0; i < 9; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("1-in-3 over 9 calls: hits=%d want 3", hits)
	}
	if NewSampler(0).Sample() {
		t.Fatal("disabled sampler fired")
	}
	if !NewSampler(1).Sample() {
		t.Fatal("1-in-1 sampler did not fire")
	}
	var nilSampler *Sampler
	if nilSampler.Sample() {
		t.Fatal("nil sampler fired")
	}
}

// TestSamplerConcurrent verifies the 1-in-M invariant holds exactly under
// concurrent callers: the atomic counter hands out sample slots without
// loss or duplication.
func TestSamplerConcurrent(t *testing.T) {
	const (
		workers = 8
		each    = 300
		every   = 4
	)
	s := NewSampler(every)
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < each; i++ {
				if s.Sample() {
					local++
				}
			}
			mu.Lock()
			total += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if want := workers * each / every; total != want {
		t.Fatalf("sampled=%d want exactly %d", total, want)
	}
}

func TestTraceStoreSpanTreeParents(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	tr := NewTrace()
	root := tr.StartRoot("cluster_search")
	tr.StartSpan("encode").End()
	scatter := tr.StartSpan("scatter")
	sh0 := scatter.StartChild("shard").AnnotateInt("shard", 0).Annotate("attempt", "primary")
	sh0.End()
	sh1 := scatter.StartChild("shard").AnnotateInt("shard", 1).Annotate("attempt", "retry")
	sh1.End()
	scatter.End()
	root.End()
	if kept, _ := s.Offer(tr, TraceOutcome{Degraded: true}); !kept {
		t.Fatal("degraded trace not kept")
	}
	st, ok := s.Get(tr.ID().String())
	if !ok {
		t.Fatal("stored trace not retrievable by ID")
	}
	if len(st.Spans) != 5 {
		t.Fatalf("stored %d spans, want 5", len(st.Spans))
	}
	parentOf := make(map[string]string)
	nameOf := make(map[string]string)
	for _, sp := range st.Spans {
		parentOf[sp.SpanID] = sp.ParentID
		nameOf[sp.SpanID] = sp.Name
	}
	rootID := root.ID().String()
	if parentOf[rootID] != "" {
		t.Errorf("local root has parent %q, want none", parentOf[rootID])
	}
	if parentOf[scatter.ID().String()] != rootID {
		t.Errorf("scatter parent = %s, want root %s", parentOf[scatter.ID().String()], rootID)
	}
	for _, sh := range []*Span{sh0, sh1} {
		if parentOf[sh.ID().String()] != scatter.ID().String() {
			t.Errorf("shard span parent = %s, want scatter %s",
				parentOf[sh.ID().String()], scatter.ID().String())
		}
	}
}

func TestTraceStoreRemoteParent(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	remote := NewSpanID()
	tr := NewTraceWith(NewTraceID(), remote, FlagSampled)
	root := tr.StartRoot("search")
	root.End()
	s.Offer(tr, TraceOutcome{Err: "x"})
	st, _ := s.Get(tr.ID().String())
	if len(st.Spans) != 1 {
		t.Fatalf("stored %d spans, want 1", len(st.Spans))
	}
	if st.Spans[0].ParentID != remote.String() {
		t.Errorf("propagated root's parent = %q, want remote %s", st.Spans[0].ParentID, remote)
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{Capacity: 32, HeadSampleEvery: 2})
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr := NewTrace()
				root := tr.StartRoot("search")
				tr.StartSpan("encode").End()
				root.End()
				o := TraceOutcome{Duration: time.Duration(i) * time.Microsecond}
				if i%3 == 0 {
					o.Err = "boom"
				}
				s.Offer(tr, o)
			}
		}(g)
	}
	wg.Wait()
	if got := s.Offered(); got != goroutines*perG {
		t.Errorf("Offered = %d, want %d", got, goroutines*perG)
	}
	if s.Len() > 32 {
		t.Errorf("Len = %d exceeds capacity 32", s.Len())
	}
	// Every listed trace must be retrievable by its ID — the byID map and
	// the ring must agree after concurrent eviction churn.
	for _, st := range s.List(0) {
		got, ok := s.Get(st.TraceID)
		if !ok {
			t.Errorf("listed trace %s not retrievable by ID", st.TraceID)
		} else if got.TraceID != st.TraceID {
			t.Errorf("Get(%s) returned trace %s", st.TraceID, got.TraceID)
		}
	}
	if kept := s.Kept(); int64(s.Len())+s.Evicted() != kept {
		t.Errorf("Len %d + Evicted %d != Kept %d", s.Len(), s.Evicted(), kept)
	}
}

func TestTraceStoreWriteJSONL(t *testing.T) {
	s := NewTraceStore(TraceStoreConfig{})
	var ids []string
	for i := 0; i < 3; i++ {
		tr := finishedTrace(t)
		ids = append(ids, tr.ID().String())
		s.Offer(tr, TraceOutcome{Err: "x", Query: fmt.Sprintf("q%d", i)})
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var st StoredTrace
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if st.TraceID != ids[lines] { // oldest first
			t.Errorf("line %d trace ID = %s, want %s", lines, st.TraceID, ids[lines])
		}
		if len(st.Spans) == 0 {
			t.Errorf("line %d has no spans", lines)
		}
		lines++
	}
	if lines != 3 {
		t.Errorf("wrote %d lines, want 3", lines)
	}
}

func TestTraceStoreNil(t *testing.T) {
	var s *TraceStore
	if kept, kind := s.Offer(NewTrace(), TraceOutcome{Err: "x"}); kept || kind != "" {
		t.Error("nil store kept a trace")
	}
	if s.Len() != 0 || s.Offered() != 0 || s.Kept() != 0 || s.Evicted() != 0 {
		t.Error("nil store reports non-zero counters")
	}
	if _, ok := s.Get("abc"); ok {
		t.Error("nil store returned a trace")
	}
	if s.List(5) != nil {
		t.Error("nil store listed traces")
	}
	if s.Slowest(5) != nil || s.Costliest(5) != nil {
		t.Error("nil store listed slow or costly traces")
	}
	if err := s.WriteJSONL(&bytes.Buffer{}, 0); err != nil {
		t.Errorf("nil store WriteJSONL: %v", err)
	}
	// Offer with a nil trace keeps nothing either.
	real := NewTraceStore(TraceStoreConfig{})
	if kept, _ := real.Offer(nil, TraceOutcome{Err: errors.New("x").Error()}); kept {
		t.Error("nil trace kept")
	}
}

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace()
	if tr.ID().IsZero() {
		t.Fatal("new trace has zero ID")
	}
	root := tr.StartRoot("search")
	if tr.RootID() != root.ID() {
		t.Error("RootID does not match the started root")
	}
	a := tr.StartSpan("encode")
	a.End()
	b := tr.StartSpan("scan")
	child := b.StartChild("chunk")
	child.End()
	b.End()
	root.End()

	recs := tr.Spans()
	if len(recs) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(recs))
	}
	parents := make(map[SpanID]SpanID)
	for _, r := range recs {
		parents[r.SpanID] = r.Parent
	}
	if parents[a.ID()] != root.ID() || parents[b.ID()] != root.ID() {
		t.Error("stage spans not parented under root")
	}
	if parents[child.ID()] != b.ID() {
		t.Error("child span not parented under its parent span")
	}
	if !parents[root.ID()].IsZero() {
		t.Error("root span has a parent")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var tr *Trace
	root := tr.StartRoot("search")
	sp := tr.StartSpan("encode")
	child := sp.StartChild("inner").Annotate("k", "v").AnnotateInt("n", 1)
	if child.ID() != (SpanID{}) {
		t.Error("untraced span minted an ID")
	}
	time.Sleep(time.Millisecond)
	if child.End() <= 0 || sp.End() <= 0 || root.End() <= 0 {
		t.Error("nil-trace spans should still measure time")
	}
	if tr.Spans() != nil {
		t.Error("nil trace retained spans")
	}
	var nilSpan *Span
	if nilSpan.End() != 0 || nilSpan.Name() != "" {
		t.Error("nil span misbehaved")
	}
	nilSpan.Annotate("k", "v") // must not panic
}
