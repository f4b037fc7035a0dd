package netcluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// floatClasses is one float32 of every IEEE-754 class, by bits: quiet and
// signalling NaNs with payloads, both zeros, subnormals, infinities and
// the largest finite values. JSON cannot carry the NaNs and infinities.
var floatClasses = []uint32{
	0x7fc00001, 0xffc12345, 0x7f800001, // NaNs: quiet with payload, negative, signalling
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, // subnormals: the smallest, the largest negative
	0x7f800000, 0xff800000, // ±Inf
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x3e800000, // 0.25
}

func classVector() []float32 {
	v := make([]float32, len(floatClasses))
	for i, b := range floatClasses {
		v[i] = math.Float32frombits(b)
	}
	return v
}

// echoBackend answers with one match per component of the last query it
// received, scored with that component, so a test sees both directions.
type echoBackend struct {
	mu  sync.Mutex
	got [][]float32
}

func (e *echoBackend) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	ms, err := e.SearchEncodedBatch(ctx, [][]float32{q}, []int{k}, nil)
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

func (e *echoBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	e.mu.Lock()
	e.got = qs
	e.mu.Unlock()
	out := make([][]core.Match, len(qs))
	for i, q := range qs {
		for j, x := range q {
			out[i] = append(out[i], core.Match{RelationID: strings.Repeat("r", j), Score: x})
		}
	}
	return out, nil
}

// TestFrameFloatsRoundTripBitForBit: through a real shard, a request
// vector reaches the backend and a score reaches the client as the same
// bits for every float32 class, alone and in a block.
func TestFrameFloatsRoundTripBitForBit(t *testing.T) {
	backend := &echoBackend{}
	h := NewShardHandler(backend, nil, nil, len(floatClasses))
	srv := serveStreams(t, h, h)
	cl := NewClient(srv.URL, nil)
	v := classVector()
	same := func(what string, got []float32) {
		t.Helper()
		if len(got) != len(floatClasses) {
			t.Fatalf("%s: %d floats, want %d", what, len(got), len(floatClasses))
		}
		for i, x := range got {
			if math.Float32bits(x) != floatClasses[i] {
				t.Errorf("%s[%d]: bits %#08x, want %#08x", what, i, math.Float32bits(x), floatClasses[i])
			}
		}
	}
	scores := func(ms []core.Match) []float32 {
		out := make([]float32, len(ms))
		for i, m := range ms {
			out[i] = m.Score
		}
		return out
	}

	ms, _, _, err := cl.SearchEncoded(context.Background(), v, 3)
	if err != nil {
		t.Fatal(err)
	}
	same("single request", backend.got[0])
	same("single response", scores(ms))

	rev := append([]float32(nil), v...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	batch, _, _, err := cl.SearchEncodedBatch(context.Background(), [][]float32{rev, v}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	same("batch request", backend.got[1])
	same("batch response", scores(batch[1]))
	if math.Float32bits(batch[0][0].Score) != floatClasses[len(floatClasses)-1] {
		t.Errorf("batch item 0 answered for the wrong vector: %+v", batch[0][0])
	}
}

// answerEditor dials streams over http.DefaultTransport and rewrites the
// body of every 2xx answer they carry through edit.
type answerEditor struct{ edit func([]byte) []byte }

func (a answerEditor) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
		resp.Body = &editedStream{ReadWriteCloser: rwc, edit: a.edit}
	}
	return resp, nil
}

type editedStream struct {
	io.ReadWriteCloser
	edit    func([]byte) []byte
	pending []byte
}

func (s *editedStream) Read(p []byte) (int, error) {
	if len(s.pending) == 0 {
		ans, status, body, err := readAnswer(s.ReadWriteCloser, nil)
		if err != nil {
			return 0, err
		}
		if status/100 == 2 {
			ans = appendAnswer(nil, status, s.edit(body))
		}
		s.pending = ans
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

// TestClientRejectsDamagedFrames: a response frame carrying a trailing
// byte, empty, or answering the wrong number of queries is the replica's
// fault — *MalformedError, which a Group fails over on (a truncated one is
// TestFaultTruncateYieldsMalformed).
func TestClientRejectsDamagedFrames(t *testing.T) {
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, nil, 0)
	srv := serveStreams(t, h, h)
	for name, edit := range map[string]func([]byte) []byte{
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
		"empty":         func([]byte) []byte { return nil },
		"two answers": func([]byte) []byte {
			return appendResponse(nil, reply{ms: make([][]core.Match, 2), costs: make([]obs.CostReport, 2)})
		},
	} {
		cl := NewClient(srv.URL, answerEditor{edit: edit})
		_, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
		var me *MalformedError
		if !errors.As(err, &me) {
			t.Errorf("%s: want *MalformedError, got %v", name, err)
		}
		if requestError(err) {
			t.Errorf("%s: a damaged answer must fail over", name)
		}
	}
}

// costBackend charges a fixed, multi-byte cost report per query (the
// query's index added to DistanceComps in a batch).
type costBackend struct {
	fakeBackend
	rep obs.CostReport
}

func (b *costBackend) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	obs.CostFrom(ctx).AddReport(b.rep)
	return b.fakeBackend.SearchEncoded(ctx, q, k)
}

func (b *costBackend) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	for i, c := range costs {
		r := b.rep
		r.DistanceComps += int64(i)
		c.AddReport(r)
	}
	return b.fakeBackend.SearchEncodedBatch(ctx, qs, ks, costs)
}

// TestGroupGraftsShardRecordsExactly: the cost reports a Group folds in and
// the span records it grafts, through a real shard, equal what the shard
// recorded — IDs, parents, names, durations and annotations.
func TestGroupGraftsShardRecordsExactly(t *testing.T) {
	backend := &costBackend{
		fakeBackend: fakeBackend{matches: rankedMatches(0, 8)},
		rep:         obs.CostReport{DistanceComps: 1 << 40, HNSWHops: 7, PQLookups: 300, ValuesScanned: 1 << 20, BytesScanned: 1 << 33, CandidatesGenerated: 5, CandidatesPruned: 4, CacheHits: 1},
	}
	store := obs.NewTraceStore(obs.TraceStoreConfig{HeadSampleEvery: 1})
	h := NewShardHandler(backend, store, nil, 0)
	srv := serveStreams(t, h, h)
	g, err := NewGroup(0, []string{srv.URL}, func(u string) *Client { return NewClient(u, nil) }, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traced := func(run func(context.Context)) {
		t.Helper()
		tr := obs.NewTrace()
		root := tr.StartRoot("test_root")
		ctx := obs.ContextWithTrace(context.Background(), tr)
		run(obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: tr.ID(), SpanID: root.ID(), Flags: tr.Flags()}))
		root.End()
		stored, ok := store.Get(tr.ID().String())
		if !ok {
			t.Fatal("the shard retained no trace under the propagated ID")
		}
		var grafted []obs.SpanRecord
		for _, sp := range tr.Spans() {
			if sp.SpanID != root.ID() {
				grafted = append(grafted, sp)
			}
		}
		if len(grafted) == 0 || len(grafted) != len(stored.Spans) {
			t.Fatalf("grafted %d spans, the shard recorded %d", len(grafted), len(stored.Spans))
		}
		for i, sp := range grafted {
			want := stored.Spans[i]
			parent := sp.Parent
			if parent.IsZero() {
				parent = root.ID() // the shard root's remote parent, as the store records it
			}
			if sp.SpanID.String() != want.SpanID || parent.String() != want.ParentID || sp.Name != want.Name ||
				float64(sp.Duration)/1e6 != want.DurationMS || len(sp.Annotations) != len(want.Annotations) {
				t.Errorf("span %d: grafted %+v, shard recorded %+v", i, sp, want)
			}
			for k, v := range want.Annotations {
				if sp.Annotations[k] != v {
					t.Errorf("span %d annotation %s = %q, shard recorded %q", i, k, sp.Annotations[k], v)
				}
			}
		}
	}

	traced(func(ctx context.Context) {
		cost := &obs.Cost{}
		if _, err := g.SearchEncoded(obs.ContextWithCost(ctx, cost), testVec, 3); err != nil {
			t.Fatal(err)
		}
		if got := cost.Report(); got != backend.rep {
			t.Errorf("folded cost %+v, shard charged %+v", got, backend.rep)
		}
	})
	traced(func(ctx context.Context) {
		costs := []*obs.Cost{{}, {}, {}}
		if _, err := g.SearchEncodedBatch(ctx, [][]float32{testVec, testVec, testVec}, []int{1, 2, 3}, costs); err != nil {
			t.Fatal(err)
		}
		for i, c := range costs {
			want := backend.rep
			want.DistanceComps += int64(i)
			if got := c.Report(); got != want {
				t.Errorf("batch item %d: folded cost %+v, shard charged %+v", i, got, want)
			}
		}
	})
}

// frameAllocBudget bounds what decoding an n-byte frame may allocate,
// whatever its counts claim. The dearest byte is an annotation's: two
// bytes on the wire buy a map entry of two string headers, in a map sized
// up to twice its count.
func frameAllocBudget(n int) uint64 {
	return 64<<10 + 64*uint64(n)
}

// decodeBoth runs both decoders over data, as a shard and a client would
// meet it, and fails the test if either allocated past the budget.
func decodeBoth(t *testing.T, data []byte) (qs [][]float32, ks []int, reqErr *frameError, rep reply, respErr error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	qs, ks, reqErr = readRequest(bytes.NewReader(data), int64(len(data)), 0, maxEncodedBatch)
	rep, respErr = decodeResponse(data)
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, frameAllocBudget(len(data)); got > max {
		t.Fatalf("decoding allocated %d bytes for a %d-byte frame, budget %d", got, len(data), max)
	}
	return qs, ks, reqErr, rep, respErr
}

// TestFrameAllocationFollowsInput: counts read from a frame are checked
// against the bytes that remain before anything is sized by them.
func TestFrameAllocationFollowsInput(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint 1<<32 - 1
	for name, data := range map[string][]byte{
		"request of 256 × 65536 floats": {frameVersion, 0, 1, 0, 0, 0, 0, 1, 0},
		"response of 2³² queries":       append([]byte{frameVersion}, huge...),
		"query of 2³² matches":          append([]byte{frameVersion, 1}, huge...),
		"2³² spans":                     append([]byte{frameVersion, 0}, huge...),
		"span of 2³² annotations": append(append([]byte{frameVersion, 0, 1},
			make([]byte, 8+8+1+1+1)...), huge...),
		"match ID of 2³² bytes": append([]byte{frameVersion, 1, 1}, huge...),
	} {
		_, _, reqErr, _, respErr := decodeBoth(t, data)
		if reqErr == nil || respErr == nil {
			t.Errorf("%s: decoded (request err %v, response err %v)", name, reqErr, respErr)
		}
	}
}

// FuzzWireFrame feeds both frame decoders arbitrary bytes: neither may
// panic or allocate past frameAllocBudget, and a frame either accepts
// re-encodes to exactly its input.
func FuzzWireFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		qs, ks, reqErr, rep, respErr := decodeBoth(t, data)
		if reqErr == nil {
			again, err := appendRequest(nil, qs, ks)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("request frame re-encodes to %x (%v), decoded from %x", again, err, data)
			}
		}
		if respErr == nil {
			if again := appendResponse(nil, rep); !bytes.Equal(again, data) {
				t.Fatalf("response frame re-encodes to %x, decoded from %x", again, data)
			}
		}
	})
}

// FuzzStreamEnvelope feeds arbitrary bytes to a shard's request-envelope
// reader and a client's answer reader, as each meets a stream: the length
// prefix, trace context, budget and status around a frame. Neither may
// panic or allocate past frameAllocBudget, whatever a prefix claims; an
// envelope or answer either reads re-encodes to exactly the bytes it
// consumed; and an answer classifies as a reply, *RemoteError or
// *MalformedError.
func FuzzStreamEnvelope(f *testing.F) {
	cl := &Client{base: "http://shard"}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		req, fe, reqErr := readEnvelope(r, 0, maxEncodedBatch)
		consumed := len(data) - r.Len()
		ans, status, body, ansErr := readAnswer(bytes.NewReader(data), nil)
		var decErr error
		if ansErr == nil {
			_, decErr = cl.decodeAnswer(status, body, 1)
		}
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, frameAllocBudget(len(data)); got > max {
			t.Fatalf("reading allocated %d bytes for %d bytes of stream, budget %d", got, len(data), max)
		}
		if reqErr == nil && fe == nil {
			again, err := appendEnvelope(nil, req.sc, req.budget, req.qs, req.ks)
			if err != nil || !bytes.Equal(again, data[:consumed]) {
				t.Fatalf("request envelope re-encodes to %x (%v), read from %x", again, err, data[:consumed])
			}
		}
		if ansErr == nil {
			if again := appendAnswer(nil, status, body); !bytes.Equal(again, ans) || !bytes.Equal(ans, data[:len(ans)]) {
				t.Fatalf("answer re-encodes to %x, read %x from %x", again, ans, data)
			}
			var re *RemoteError
			var me *MalformedError
			if decErr != nil && !errors.As(decErr, &re) && !errors.As(decErr, &me) {
				t.Fatalf("answer with status %d: unclassified error %v", status, decErr)
			}
		}
	})
}
