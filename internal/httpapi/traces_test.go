package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semdisco"
	"semdisco/internal/obs"
)

// keepAll retains every offered trace, making the debug endpoints
// deterministic under test.
var keepAll = semdisco.TracingConfig{HeadSampleEvery: 1}

func testTracedServer(t *testing.T) *Server {
	t.Helper()
	srv := testServer(t)
	srv.backend.(*semdisco.Engine).ConfigureTracing(keepAll)
	return srv
}

// doHdr is do with request headers.
func doHdr(t *testing.T, srv *Server, method, path, body string, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestTraceparentPropagation(t *testing.T) {
	srv := testTracedServer(t)
	const traceHex = "4bf92f3577b34da6a3ce929d0e0e4736"
	const spanHex = "00f067aa0ba902b7"
	inbound := "00-" + traceHex + "-" + spanHex + "-01"

	rec, body := doHdr(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`,
		map[string]string{"traceparent": inbound, "X-Request-Id": "req-42"})
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	if got := rec.Header().Get("X-Trace-Id"); got != traceHex {
		t.Errorf("X-Trace-Id = %q, want inbound trace ID %s", got, traceHex)
	}
	sc, ok := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
	if !ok || sc.TraceID.String() != traceHex {
		t.Errorf("response Traceparent = %q, want trace %s", rec.Header().Get("Traceparent"), traceHex)
	}
	if got := rec.Header().Get("X-Request-Id"); got != "req-42" {
		t.Errorf("X-Request-Id = %q, want the inbound req-42", got)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != traceHex {
		t.Errorf("body trace_id = %q, want %s", resp.TraceID, traceHex)
	}

	// The stored trace continues the inbound context: retrievable under the
	// caller's trace ID, its root span parented to the caller's span.
	rec, body = do(t, srv, "GET", "/v1/debug/traces/"+traceHex, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace fetch=%d %s", rec.Code, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != traceHex {
		t.Errorf("stored trace ID = %s, want %s", tr.TraceID, traceHex)
	}
	if tr.RequestID != "req-42" {
		t.Errorf("stored request ID = %q, want req-42", tr.RequestID)
	}
	if len(tr.Tree) != 1 {
		t.Fatalf("span forest has %d roots, want 1: %+v", len(tr.Tree), tr.Tree)
	}
	root := tr.Tree[0]
	if root.Name != "search" {
		t.Errorf("root span = %q, want search", root.Name)
	}
	if root.ParentID != spanHex {
		t.Errorf("root parent = %q, want the inbound span %s", root.ParentID, spanHex)
	}
	if len(root.Children) == 0 {
		t.Error("root span has no stage children")
	}
}

func TestMintedTraceIDWithoutInboundHeader(t *testing.T) {
	srv := testTracedServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if _, ok := obs.ParseTraceID(id); !ok {
		t.Fatalf("minted X-Trace-Id %q is not a valid trace ID", id)
	}
	// Without an inbound X-Request-Id the trace ID doubles as correlation ID.
	if got := rec.Header().Get("X-Request-Id"); got != id {
		t.Errorf("X-Request-Id = %q, want the trace ID %s", got, id)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != id {
		t.Errorf("body trace_id = %q, header X-Trace-Id = %q; must match", resp.TraceID, id)
	}
	if rec, _ := do(t, srv, "GET", "/v1/debug/traces/"+id, ""); rec.Code != http.StatusOK {
		t.Errorf("minted trace not retrievable: %d", rec.Code)
	}
}

func TestDebugTracesList(t *testing.T) {
	srv := testTracedServer(t)
	var ids []string
	for _, q := range []string{"COVID", "Quartz", "Hardness"} {
		rec, _ := do(t, srv, "POST", "/v1/search", `{"query":"`+q+`","k":1}`)
		ids = append(ids, rec.Header().Get("X-Trace-Id"))
	}
	rec, body := do(t, srv, "GET", "/v1/debug/traces?n=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list=%d %s", rec.Code, body)
	}
	var list TracesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Offered != 3 || list.Kept != 3 {
		t.Errorf("offered=%d kept=%d, want 3/3", list.Offered, list.Kept)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("listed %d traces, want the requested 2", len(list.Traces))
	}
	// Newest first.
	if list.Traces[0].TraceID != ids[2] || list.Traces[1].TraceID != ids[1] {
		t.Errorf("list order = %s, %s; want %s, %s",
			list.Traces[0].TraceID, list.Traces[1].TraceID, ids[2], ids[1])
	}
}

func TestDebugTraceErrors(t *testing.T) {
	srv := testTracedServer(t)
	rec, _ := do(t, srv, "GET", "/v1/debug/traces/deadbeef", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace ID: %d, want 404", rec.Code)
	}
	rec, _ = do(t, srv, "GET", "/v1/debug/traces?n=bogus", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad n: %d, want 400", rec.Code)
	}

	// With tracing disabled, both endpoints answer 404 honestly.
	srv.backend.(*semdisco.Engine).ConfigureTracing(semdisco.TracingConfig{Disable: true})
	for _, path := range []string{"/v1/debug/traces", "/v1/debug/traces/deadbeef"} {
		if rec, _ := do(t, srv, "GET", path, ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s with tracing disabled: %d, want 404", path, rec.Code)
		}
	}
}

func TestMetricsExemplarsResolveToStoredTraces(t *testing.T) {
	srv := testTracedServer(t)
	rec, _ := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	id := rec.Header().Get("X-Trace-Id")

	// Plain scrape: 0.0.4 text format, no exemplar syntax, HELP present.
	rec, body := do(t, srv, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics=%d", rec.Code)
	}
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Errorf("plain scrape content type = %q", rec.Header().Get("Content-Type"))
	}
	text := string(body)
	if !strings.Contains(text, "# HELP") {
		t.Error("plain exposition carries no HELP lines")
	}
	if strings.Contains(text, "trace_id=") {
		t.Error("exemplar leaked into the plain 0.0.4 exposition")
	}

	// OpenMetrics scrape: exemplars link the latency histogram to the
	// stored trace.
	rec, body = doHdr(t, srv, "GET", "/metrics", "",
		map[string]string{"Accept": "application/openmetrics-text"})
	if rec.Code != http.StatusOK {
		t.Fatalf("openmetrics=%d", rec.Code)
	}
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/openmetrics-text") {
		t.Errorf("openmetrics content type = %q", rec.Header().Get("Content-Type"))
	}
	text = string(body)
	if !strings.HasSuffix(strings.TrimSpace(text), "# EOF") {
		t.Error("openmetrics exposition missing # EOF terminator")
	}
	want := `trace_id="` + id + `"`
	if !strings.Contains(text, want) {
		t.Fatalf("openmetrics exposition carries no exemplar for trace %s", id)
	}
	// And the exemplar resolves: the ID it names is fetchable.
	if rec, _ := do(t, srv, "GET", "/v1/debug/traces/"+id, ""); rec.Code != http.StatusOK {
		t.Errorf("exemplar trace %s not retrievable: %d", id, rec.Code)
	}
}
