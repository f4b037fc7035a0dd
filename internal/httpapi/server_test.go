package httpapi

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"semdisco"
	"semdisco/internal/netcluster"
)

// netFed builds n deterministic relations with overlapping vocabulary, the
// same shape the root package's networked-cluster tests use.
func netFed(t *testing.T, n int) *semdisco.Federation {
	t.Helper()
	fed := semdisco.NewFederation()
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(i, j int) string {
		return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
	}
	for i := 0; i < n; i++ {
		r := &semdisco.Relation{
			ID:      fmt.Sprintf("rel-%03d", i),
			Source:  fmt.Sprintf("src-%d", i%3),
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// modeConfig is the engine configuration the two-mode suites share:
// exhaustive search (so every mode must rank bit-identically to a single
// engine) over hand-driven segments (no background compaction inside an
// assertion).
func modeConfig() semdisco.Config {
	cfg := semdisco.Config{Method: semdisco.ExS, Dim: 64, Seed: 1}
	cfg.Segments.Manual = true
	return cfg
}

// coordServer stands up the full networked stack over httpapi itself:
// every replica is a complete httpapi.New shard server (public API plus
// the internal search stream), and the returned Server fronts a
// NetCoordinator over them — the deployment cmd/semdisco-serve assembles,
// in-process. transport (nil for the default) carries coordinator→shard
// requests.
func coordServer(t *testing.T, fed *semdisco.Federation, cfg semdisco.Config, transport http.RoundTripper) *Server {
	t.Helper()
	const sets, reps = 2, 2
	replicaSets := make([][]string, sets)
	for s := 0; s < sets; s++ {
		for r := 0; r < reps; r++ {
			eng, err := semdisco.NewNetShard(fed, semdisco.NetShardConfig{Config: cfg, Sets: sets, Set: s})
			if err != nil {
				t.Fatal(err)
			}
			api := New(eng)
			srv := httptest.NewServer(api)
			t.Cleanup(func() {
				srv.Close()
				api.CloseStreams()
			})
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
	}
	nc, err := semdisco.NewNetCoordinator(fed, replicaSets, semdisco.NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
		Transport:      transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(nc)
}

// modeServer is one deployment shape under test.
type modeServer struct {
	mode string
	srv  *Server
}

// forEachMode serves one 24-relation federation two ways — a single
// engine and a coordinator over 2 sets × 2 replicas — and runs fn as one subtest per deployment shape, each with an
// independent single engine over the same federation: the oracle the
// mode's answers are compared against.
func forEachMode(t *testing.T, cfg semdisco.Config, fn func(t *testing.T, m modeServer, oracle *semdisco.Engine)) {
	fed := netFed(t, 24)
	for _, m := range []modeServer{
		{"engine", New(mustOpen(t, fed, cfg))},
		{"coordinator", coordServer(t, fed, cfg, nil)},
	} {
		t.Run(m.mode, func(t *testing.T) { fn(t, m, mustOpen(t, fed, cfg)) })
	}
}

// mustJSON issues a request, asserts its status and decodes the body.
func mustJSON(t *testing.T, srv *Server, method, path, body string, want int, into interface{}) *httptest.ResponseRecorder {
	t.Helper()
	rec, out := do(t, srv, method, path, body)
	if rec.Code != want {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, want, out)
	}
	if into != nil {
		if err := json.Unmarshal(out, into); err != nil {
			t.Fatalf("%s %s: body %q: %v", method, path, out, err)
		}
	}
	return rec
}

// sameMatches asserts a wire answer equals the oracle's, bit for bit.
func sameMatches(t *testing.T, what string, got []MatchJSON, want []semdisco.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, oracle returned %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].RelationID != want[i].RelationID || got[i].Score != want[i].Score {
			t.Fatalf("%s match %d: %+v vs oracle %+v", what, i, got[i], want[i])
		}
	}
}

// wantError asserts the unified error body of a non-2xx answer.
func wantError(t *testing.T, srv *Server, method, path, body string, status int, code string) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	mustJSON(t, srv, method, path, body, status, &e)
	if e.Error == "" || e.Code != code {
		t.Fatalf("%s %s: error body %+v, want code %q", method, path, e, code)
	}
	return e
}

// wantStages asserts that each named stage appears anywhere in the trace's
// rendered span tree.
func wantStages(t *testing.T, tr TraceResponse, stages ...string) {
	t.Helper()
	names := make(map[string]bool)
	var walk func(nodes []*SpanTreeJSON)
	walk = func(nodes []*SpanTreeJSON) {
		for _, n := range nodes {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(tr.Tree)
	for _, want := range stages {
		if !names[want] {
			t.Errorf("span tree missing stage %q (got %+v)", want, tr.Spans)
		}
	}
}

// TestServerSearch: /v1/search has one shape in every mode — the single
// engine's ranking, a trace ID and cost accounting — and its trace, head-
// sampled here, is retained as a span tree naming the mode's stages.
func TestServerSearch(t *testing.T) {
	cfg := modeConfig()
	cfg.Tracing.HeadSampleEvery = 1
	forEachMode(t, cfg, func(t *testing.T, m modeServer, oracle *semdisco.Engine) {
		for _, q := range []string{"abc", "mno", "xyz qrs"} {
			var resp SearchResponse
			mustJSON(t, m.srv, "POST", "/v1/search", fmt.Sprintf(`{"query":%q,"k":5}`, q), http.StatusOK, &resp)
			want, err := oracle.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, q, resp.Matches, want)
			if resp.Degraded || len(resp.ShardErrors) > 0 {
				t.Fatalf("%q degraded: %v", q, resp.ShardErrors)
			}
			if resp.TraceID == "" {
				t.Errorf("%q: no trace_id", q)
			}
			if resp.Cost == nil || resp.Cost.DistanceComps == 0 {
				t.Errorf("%q: no cost accounting: %+v", q, resp.Cost)
			}
		}
		var traced SearchResponse
		mustJSON(t, m.srv, "POST", "/v1/search", `{"query":"bfd","k":3}`, http.StatusOK, &traced)
		var tr TraceResponse
		mustJSON(t, m.srv, "GET", "/v1/debug/traces/"+traced.TraceID, "", http.StatusOK, &tr)
		if m.mode == "engine" {
			wantStages(t, tr, "encode", "scan", "rank")
		} else {
			wantStages(t, tr, "encode", "scatter", "merge")
		}
		// Absent and oversized k clamp instead of failing.
		var clamped SearchResponse
		mustJSON(t, m.srv, "POST", "/v1/search", `{"query":"abc","k":100000}`, http.StatusOK, &clamped)
		if len(clamped.Matches) == 0 || len(clamped.Matches) > 24 {
			t.Errorf("k=100000: %d matches", len(clamped.Matches))
		}
		for _, body := range []string{"", "{", `{"k":3}`} {
			wantError(t, m.srv, "POST", "/v1/search", body, http.StatusBadRequest, netcluster.CodeBadRequest)
		}
	})
}

// TestServerBatch: /v1/search/batch answers positionally, each item equal
// to the single engine's answer, with the same validation in every mode,
// and its trace — head-sampled here — is retained under the X-Trace-Id the
// response carries.
func TestServerBatch(t *testing.T) {
	cfg := modeConfig()
	cfg.Tracing.HeadSampleEvery = 1
	forEachMode(t, cfg, func(t *testing.T, m modeServer, oracle *semdisco.Engine) {
		var resp BatchSearchResponse
		rec := mustJSON(t, m.srv, "POST", "/v1/search/batch",
			`{"queries":[{"query":"abc","k":3},{"query":"bfd","k":7},{"query":"mno"}]}`, http.StatusOK, &resp)
		var tr TraceResponse
		mustJSON(t, m.srv, "GET", "/v1/debug/traces/"+rec.Header().Get("X-Trace-Id"), "", http.StatusOK, &tr)
		if len(tr.Tree) == 0 || !strings.HasSuffix(tr.Tree[0].Name, "search_batch") || tr.Tree[0].Annotations["queries"] != "3" {
			t.Errorf("batch trace spans = %+v, want a *search_batch root over 3 queries", tr.Spans)
		}
		if len(resp.Results) != 3 {
			t.Fatalf("%d results, want 3", len(resp.Results))
		}
		var cost int64
		for i, tc := range []struct {
			q string
			k int
		}{{"abc", 3}, {"bfd", 7}, {"mno", 10}} {
			want, err := oracle.Search(tc.q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, fmt.Sprintf("item %d", i), resp.Results[i].Matches, want)
			if resp.Results[i].Cost == nil || resp.Results[i].Cost.DistanceComps == 0 {
				t.Fatalf("item %d: no cost accounting: %+v", i, resp.Results[i].Cost)
			}
			cost += resp.Results[i].Cost.Total()
		}
		if tr.Cost != cost {
			t.Errorf("batch trace cost %d, want the items' sum %d", tr.Cost, cost)
		}
		for name, body := range map[string]string{
			"empty":       `{"queries":[]}`,
			"missing":     `{}`,
			"blank query": `{"queries":[{"query":"","k":1}]}`,
			"garbage":     `{`,
		} {
			if rec, _ := do(t, m.srv, "POST", "/v1/search/batch", body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s: code=%d, want 400", name, rec.Code)
			}
		}
		items := make([]string, maxBatchQueries+1)
		for i := range items {
			items[i] = fmt.Sprintf(`{"query":"q%d","k":1}`, i)
		}
		wantError(t, m.srv, "POST", "/v1/search/batch", `{"queries":[`+strings.Join(items, ",")+`]}`,
			http.StatusBadRequest, netcluster.CodeBadRequest)
		wantError(t, m.srv, "GET", "/v1/search/batch", "", http.StatusMethodNotAllowed, netcluster.CodeMethodNotAllowed)
	})
}

// TestServerWrites drives add, update and delete end to end in every mode:
// status codes, the unified error bodies on the failure branches, and the
// ranking staying equal to a single engine that took the same writes.
func TestServerWrites(t *testing.T) {
	forEachMode(t, modeConfig(), func(t *testing.T, m modeServer, oracle *semdisco.Engine) {
		agree := func(q string) {
			t.Helper()
			var resp SearchResponse
			mustJSON(t, m.srv, "POST", "/v1/search", fmt.Sprintf(`{"query":%q,"k":10}`, q), http.StatusOK, &resp)
			want, err := oracle.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameMatches(t, q, resp.Matches, want)
		}
		var before StatsResponse
		mustJSON(t, m.srv, "GET", "/v1/stats", "", http.StatusOK, &before)
		// One write sequence per ID: a plain one, and one whose every reserved
		// character must survive the item route's path — and, in coordinator
		// mode, the path of the request forwarded to each replica.
		ids := []string{"rel-new", "a/b c?d"}
		for _, id := range ids {
			item := "/v1/relations/" + url.PathEscape(id)
			fresh := &semdisco.Relation{ID: id, Source: "src-9",
				Columns: []string{"a", "b"}, Rows: [][]string{{"abc", "def"}, {"mno", "xyz"}}}
			freshBody := fmt.Sprintf(`{"id":%q,"source":"src-9","columns":["a","b"],"rows":[["abc","def"],["mno","xyz"]]}`, id)

			mustJSON(t, m.srv, "POST", "/v1/relations", freshBody, http.StatusCreated, nil)
			if err := oracle.Add(fresh); err != nil {
				t.Fatal(err)
			}
			agree("abc def")
			wantError(t, m.srv, "POST", "/v1/relations", freshBody, http.StatusBadRequest, netcluster.CodeBadRequest) // duplicate
			wantError(t, m.srv, "PUT", item, `{"columns":["a","b"],"rows":[["only-one"]]}`,
				http.StatusBadRequest, netcluster.CodeBadRequest)

			// PUT with a body whose ID contradicts the path is the caller's error.
			wantError(t, m.srv, "PUT", item, `{"id":"other","source":"src-9","columns":["a"],"rows":[["x"]]}`,
				http.StatusBadRequest, netcluster.CodeBadRequest)
			mustJSON(t, m.srv, "PUT", item,
				`{"source":"src-9","columns":["a","b"],"rows":[["qrs","bfd"]]}`, http.StatusOK, nil)
			upd := *fresh
			upd.Rows = [][]string{{"qrs", "bfd"}}
			if err := oracle.Update(&upd); err != nil {
				t.Fatal(err)
			}
			agree("qrs bfd")

			mustJSON(t, m.srv, "DELETE", item, "", http.StatusOK, nil)
			if err := oracle.Delete(id); err != nil {
				t.Fatal(err)
			}
			agree("qrs bfd")
			// Repeated and unknown deletes are 404 — in coordinator mode the
			// replicas' own status, surfaced with the unified body.
			for _, path := range []string{item, "/v1/relations/nope"} {
				wantError(t, m.srv, "DELETE", path, "", http.StatusNotFound, netcluster.CodeNotFound)
			}
		}
		wantError(t, m.srv, "POST", "/v1/relations", "{", http.StatusBadRequest, netcluster.CodeBadRequest)
		// An invalid relation (ragged row, empty ID) is the caller's error on
		// POST exactly as on PUT.
		wantError(t, m.srv, "POST", "/v1/relations", `{"id":"bad","columns":["a","b"],"rows":[["only-one"]]}`,
			http.StatusBadRequest, netcluster.CodeBadRequest)
		wantError(t, m.srv, "POST", "/v1/relations", `{"columns":["a"],"rows":[["x"]]}`,
			http.StatusBadRequest, netcluster.CodeBadRequest)
		wantError(t, m.srv, "PUT", "/v1/relations/ghost", `{"columns":["a"],"rows":[["x"]]}`,
			http.StatusNotFound, netcluster.CodeNotFound)
		rec, _ := do(t, m.srv, "POST", "/v1/relations/rel-000", "")
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "DELETE, PUT" {
			t.Fatalf("POST on item route = %d, Allow %q", rec.Code, rec.Header().Get("Allow"))
		}
		// The corpus is back to its 24 relations; the engine's stats also
		// report the two tombstones each update-then-delete left behind.
		var stats StatsResponse
		mustJSON(t, m.srv, "GET", "/v1/stats", "", http.StatusOK, &stats)
		if stats.NumRelations != 24 || (m.mode == "engine" && stats.Segments.DeadRelations != 2*len(ids)) {
			t.Fatalf("stats after writes: relations=%d segments=%+v", stats.NumRelations, stats.Segments)
		}
		// Every write went to the one mutable segment, whose vocabulary
		// holds the six cell texts once although each ID wrote them.
		if m.mode == "engine" && stats.Segments.Texts != before.Segments.Texts+6 {
			t.Fatalf("stats after writes: %d texts, %d before", stats.Segments.Texts, before.Segments.Texts)
		}
	})
}

// TestServerRoutes covers what every mode answers alike outside the query
// path — liveness, stats identity, JSON 405/404 bodies, the telemetry
// views — and the one capability split: the surfaces only a single engine
// has answer 501 with the unified body elsewhere.
func TestServerRoutes(t *testing.T) {
	forEachMode(t, modeConfig(), func(t *testing.T, m modeServer, _ *semdisco.Engine) {
		mustJSON(t, m.srv, "GET", "/healthz", "", http.StatusOK, nil)
		var stats StatsResponse
		mustJSON(t, m.srv, "GET", "/v1/stats", "", http.StatusOK, &stats)
		if stats.Method != "ExS" || stats.NumRelations != 24 || stats.UptimeSeconds <= 0 {
			t.Errorf("stats identity: method=%q relations=%d uptime=%v", stats.Method, stats.NumRelations, stats.UptimeSeconds)
		}
		switch m.mode {
		case "engine":
			if stats.NumValues == 0 || stats.Netcluster != nil {
				t.Errorf("engine stats: %+v", stats)
			}
			// The vocabulary holds each distinct text once.
			if seg := stats.Segments; seg.Texts <= 0 || seg.Texts > seg.LiveValues {
				t.Errorf("engine stats: %d texts for %d live values", seg.Texts, seg.LiveValues)
			}
		case "coordinator":
			if stats.Netcluster == nil || stats.Netcluster.Sets != 2 {
				t.Errorf("coordinator stats: %+v", stats.Netcluster)
			}
		}

		rec, _ := do(t, m.srv, "GET", "/v1/search", "")
		if rec.Header().Get("Allow") != "POST" {
			t.Errorf("405 Allow = %q", rec.Header().Get("Allow"))
		}
		wantError(t, m.srv, "GET", "/v1/search", "", http.StatusMethodNotAllowed, netcluster.CodeMethodNotAllowed)
		wantError(t, m.srv, "GET", "/nope", "", http.StatusNotFound, netcluster.CodeNotFound)

		engineOnly := []struct{ method, path, body string }{
			{"GET", "/v1/debug/index", ""},
			{"GET", "/v1/debug/recall", ""},
			{"POST", "/v1/datasets", `{"query":"abc","k":3}`},
			{"POST", "/v1/search", `{"query":"abc","k":3,"sources":["src-1"]}`},
		}
		for _, r := range engineOnly {
			if m.mode == "engine" {
				mustJSON(t, m.srv, r.method, r.path, r.body, http.StatusOK, nil)
				continue
			}
			e := wantError(t, m.srv, r.method, r.path, r.body, http.StatusNotImplemented, netcluster.CodeNotImplemented)
			if !strings.Contains(e.Error, m.mode+" mode") {
				t.Errorf("%s %s: 501 body %q does not name %s mode", r.method, r.path, e.Error, m.mode)
			}
		}
		// Telemetry every backend carries: the SLO engine and the four views
		// of the one trace store, which answer 404 once tracing is off.
		mustJSON(t, m.srv, "GET", "/v1/debug/slo", "", http.StatusOK, nil)
		views := []string{"/v1/debug/traces", "/v1/debug/slow", "/v1/debug/costly", "/v1/debug/journal"}
		for _, path := range views {
			mustJSON(t, m.srv, "GET", path, "", http.StatusOK, nil)
		}
		m.srv.backend.(interface{ ConfigureTracing(semdisco.TracingConfig) }).
			ConfigureTracing(semdisco.TracingConfig{Disable: true})
		for _, path := range views {
			wantError(t, m.srv, "GET", path, "", http.StatusNotFound, netcluster.CodeNotFound)
		}
	})
}

// TestServerBodyLimit: no handler reads an unbounded body — one byte over
// the cap is refused with 413 before it is parsed. On the internal search
// stream the cap is the length a frame's header declares: a valid
// one-query header in an envelope that goes on for the same oversized body
// is refused the same way, and the stream answers the next frame.
func TestServerBodyLimit(t *testing.T) {
	eng := mustOpen(t, netFed(t, 4), modeConfig())
	srv := New(eng)
	huge := `{"query":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, r := range []struct{ method, path string }{
		{"POST", "/v1/search"},
		{"POST", "/v1/search/batch"},
		{"POST", "/v1/datasets"},
		{"POST", "/v1/relations"},
		{"PUT", "/v1/relations/rel-000"},
	} {
		rec, out := do(t, srv, r.method, r.path, huge)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with %d-byte body = %d, want 413: %.80s", r.method, r.path, len(huge), rec.Code, out)
		}
	}

	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.CloseStreams()
	})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: shard\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n",
		netcluster.PathSearchStream, netcluster.StreamProtocol)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: %v, %v", resp, err)
	}
	// An envelope: length, zero trace context and budget, then version 1,
	// one query of eng.Dim() components, k = 1, then the rest.
	frame := []byte{1, 1, 0, 0, 0, byte(eng.Dim()), byte(eng.Dim() >> 8), 0, 0, 1, 0, 0, 0}
	send := func(frame []byte) int {
		t.Helper()
		env := binary.LittleEndian.AppendUint32(nil, uint32(16+8+1+1+len(frame)))
		env = append(append(env, make([]byte, 16+8+1+1)...), frame...)
		if _, err := conn.Write(env); err != nil {
			t.Fatal(err)
		}
		var head [6]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(io.Discard, br, int64(binary.LittleEndian.Uint32(head[:]))-2); err != nil {
			t.Fatal(err)
		}
		return int(binary.LittleEndian.Uint16(head[4:]))
	}
	oversized := append(append([]byte{}, frame...), huge...)
	if got := send(oversized); got != http.StatusRequestEntityTooLarge {
		t.Errorf("a %d-byte frame declaring %d = %d, want 413", len(oversized), len(frame)+4*eng.Dim(), got)
	}
	whole := append(append([]byte{}, frame...), make([]byte, 4*eng.Dim())...)
	if got := send(whole); got != http.StatusOK {
		t.Errorf("the next frame on the stream = %d, want 200", got)
	}
}

func mustOpen(t *testing.T, fed *semdisco.Federation, cfg semdisco.Config) *semdisco.Engine {
	t.Helper()
	eng, err := semdisco.Open(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestServerSLOCountsEveryQuery: with the trace store switched off,
// searches must still feed the SLO engine — the bookkeeping is one path,
// not a fast path that skips it.
func TestServerSLOCountsEveryQuery(t *testing.T) {
	cfg := modeConfig()
	cfg.Tracing.Disable = true
	forEachMode(t, cfg, func(t *testing.T, m modeServer, _ *semdisco.Engine) {
		mustJSON(t, m.srv, "POST", "/v1/search", `{"query":"abc","k":3}`, http.StatusOK, nil)
		mustJSON(t, m.srv, "POST", "/v1/search/batch", `{"queries":[{"query":"abc","k":3},{"query":"mno","k":3}]}`, http.StatusOK, nil)
		var ss semdisco.SLOSnapshot
		mustJSON(t, m.srv, "GET", "/v1/debug/slo", "", http.StatusOK, &ss)
		if len(ss.Objectives) != 2 {
			t.Fatalf("objectives=%+v", ss.Objectives)
		}
		for _, o := range ss.Objectives {
			if len(o.Windows) == 0 || o.Windows[0].Total != 3 {
				t.Errorf("objective %s counted %+v, want 3 requests (1 search + 2 batch items)", o.Objective, o.Windows)
			}
		}
	})
}

// TestServerFilteredSearchHonoursCancellation: a client that hung up must
// not get a source-filtered or dataset search run to completion on its
// behalf — the request context reaches the scan.
func TestServerFilteredSearchHonoursCancellation(t *testing.T) {
	srv := New(mustOpen(t, netFed(t, 24), modeConfig()))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []struct{ path, body string }{
		{"/v1/search", `{"query":"abc","k":3,"sources":["src-1"]}`},
		{"/v1/datasets", `{"query":"abc","k":3}`},
	} {
		req := httptest.NewRequest("POST", r.path, strings.NewReader(r.body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
			t.Errorf("POST %s under a cancelled context = %d %s, want 500 context canceled", r.path, rec.Code, rec.Body)
		}
	}
}

// gate is a coordinator→shard transport that parks the first relation
// write it sees until released, signalling when it has it.
type gate struct {
	base    http.RoundTripper
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *gate) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/v1/relations" {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
	}
	return g.base.RoundTrip(req)
}

// TestServerSearchNotBlockedByWrite: a search issued while a replica write
// fan-out is stuck mid-flight completes — the server holds no lock that
// orders reads behind writes.
func TestServerSearchNotBlockedByWrite(t *testing.T) {
	g := &gate{base: http.DefaultTransport, entered: make(chan struct{}), release: make(chan struct{})}
	srv := coordServer(t, netFed(t, 24), modeConfig(), g)

	wrote := make(chan int, 1)
	go func() {
		rec, _ := do(t, srv, "POST", "/v1/relations", `{"id":"slow","source":"s","columns":["a"],"rows":[["abc"]]}`)
		wrote <- rec.Code
	}()
	<-g.entered // the write is now parked inside the fan-out

	searched := make(chan int, 1)
	go func() {
		rec, _ := do(t, srv, "POST", "/v1/search", `{"query":"abc","k":3}`)
		searched <- rec.Code
	}()
	select {
	case code := <-searched:
		if code != http.StatusOK {
			t.Errorf("search during write = %d", code)
		}
	case code := <-wrote:
		t.Fatalf("write returned %d before it was released", code)
	case <-time.After(10 * time.Second):
		t.Error("search blocked behind an in-flight write")
	}
	close(g.release)
	if code := <-wrote; code != http.StatusCreated {
		t.Errorf("released write = %d", code)
	}
}

// TestServerConcurrentReadsAndWrites hammers every mode with searches,
// batches and (on the engine) index introspection while relations are
// added, updated and deleted — under -race this is the evidence that the
// backends' own synchronisation suffices without a server-wide lock.
func TestServerConcurrentReadsAndWrites(t *testing.T) {
	forEachMode(t, modeConfig(), func(t *testing.T, m modeServer, _ *semdisco.Engine) {
		reads := []struct{ method, path, body string }{
			{"POST", "/v1/search", `{"query":"abc def","k":5}`},
			{"POST", "/v1/search/batch", `{"queries":[{"query":"mno","k":3},{"query":"churn","k":3}]}`},
			{"GET", "/v1/stats", ""},
		}
		if m.mode == "engine" {
			reads = append(reads,
				struct{ method, path, body string }{"GET", "/v1/debug/index", ""},
				struct{ method, path, body string }{"POST", "/v1/datasets", `{"query":"abc","k":3}`},
				struct{ method, path, body string }{"POST", "/v1/search", `{"query":"abc","k":3,"sources":["src-1","churn"]}`})
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					r := reads[i%len(reads)]
					if rec, out := do(t, m.srv, r.method, r.path, r.body); rec.Code != http.StatusOK {
						t.Errorf("%s %s during churn = %d: %s", r.method, r.path, rec.Code, out)
						return
					}
				}
			}(w)
		}
		for i := 0; i < 12; i++ {
			id := fmt.Sprintf("churn-%d", i)
			body := fmt.Sprintf(`{"id":%q,"source":"churn","columns":["a"],"rows":[["churn %d"]]}`, id, i)
			mustJSON(t, m.srv, "POST", "/v1/relations", body, http.StatusCreated, nil)
			mustJSON(t, m.srv, "PUT", "/v1/relations/"+id, body, http.StatusOK, nil)
			if i%2 == 0 {
				mustJSON(t, m.srv, "DELETE", "/v1/relations/"+id, "", http.StatusOK, nil)
			}
		}
		close(stop)
		wg.Wait()
		if m.mode == "engine" { // probes serialize on probeMu, so one runs after the churn
			mustJSON(t, m.srv, "GET", "/v1/debug/recall", "", http.StatusOK, nil)
		}
	})
}
