package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"semdisco"
)

func burst(t *testing.T, srv *Server, queries ...string) {
	t.Helper()
	for _, q := range queries {
		rec, body := do(t, srv, "POST", "/v1/search", `{"query":"`+q+`","k":3}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("search %q = %d %s", q, rec.Code, body)
		}
	}
}

func TestDebugSlowEndpoint(t *testing.T) {
	srv := testTracedServer(t)
	burst(t, srv, "COVID", "quartz hardness", "coronavirus vaccines")

	rec, body := do(t, srv, "GET", "/v1/debug/slow", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/slow=%d %s", rec.Code, body)
	}
	var resp TracesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kept != 3 || len(resp.Traces) != 3 {
		t.Fatalf("resp=%+v", resp)
	}
	for i, st := range resp.Traces {
		if st.Method != "ANNS" || st.Query == "" || len(st.Spans) == 0 {
			t.Fatalf("trace %d = %+v", i, st)
		}
		if i > 0 && st.DurationMS > resp.Traces[i-1].DurationMS {
			t.Fatal("not sorted slowest-first")
		}
	}

	// ?n bounds the response.
	rec, body = do(t, srv, "GET", "/v1/debug/slow?n=1", "")
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || len(resp.Traces) != 1 {
		t.Fatalf("n=1: %d %+v", rec.Code, resp)
	}
}

func TestDebugSlowBadParams(t *testing.T) {
	srv := testServer(t)
	for _, q := range []string{"?n=abc", "?n=-1", "?n=1e3"} {
		rec, body := do(t, srv, "GET", "/v1/debug/slow"+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d %s", q, rec.Code, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body=%s", q, body)
		}
	}
	// Oversized n is clamped, not rejected.
	rec, _ := do(t, srv, "GET", "/v1/debug/slow?n=100000", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("huge n: code=%d", rec.Code)
	}
	// Wrong method gets the JSON 405.
	rec, _ = do(t, srv, "POST", "/v1/debug/slow", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: code=%d", rec.Code)
	}
}

func TestDebugIndexEndpoint(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "GET", "/v1/debug/index", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/index=%d %s", rec.Code, body)
	}
	var h IndexDebugResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Method != "ANNS" || h.Values == 0 || h.Graph == nil {
		t.Fatalf("health=%+v", h)
	}
	if h.Graph.ReachableFraction != 1 {
		t.Fatalf("graph=%+v", h.Graph)
	}
	if h.Segments.Segments != 1 || h.Segments.LiveRelations == 0 {
		t.Fatalf("segments=%+v", h.Segments)
	}
	// A delete shows up in the debug segment stats.
	if rec, _ := do(t, srv, "DELETE", "/v1/relations/minerals", ""); rec.Code != http.StatusOK {
		t.Fatalf("delete=%d", rec.Code)
	}
	_, body = do(t, srv, "GET", "/v1/debug/index", "")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Segments.DeadRelations != 1 {
		t.Fatalf("segments after delete=%+v", h.Segments)
	}
}

func TestDebugRecallEndpoint(t *testing.T) {
	srv := testServer(t)
	burst(t, srv, "COVID")
	rec, body := do(t, srv, "GET", "/v1/debug/recall?k=3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/recall=%d %s", rec.Code, body)
	}
	var res semdisco.RecallResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Method != "ANNS" || res.K != 3 || res.Recall < 0 || res.Recall > 1 {
		t.Fatalf("res=%+v", res)
	}

	for _, q := range []string{"?k=abc", "?k=-2"} {
		rec, _ := do(t, srv, "GET", "/v1/debug/recall"+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d", q, rec.Code)
		}
	}
}

func TestDebugRecallBusy(t *testing.T) {
	srv := testServer(t)
	srv.probeMu.Lock()
	defer srv.probeMu.Unlock()
	rec, body := do(t, srv, "GET", "/v1/debug/recall", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("busy probe: code=%d %s", rec.Code, body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

func TestDebugJournalEndpoint(t *testing.T) {
	srv := testTracedServer(t)
	burst(t, srv, "COVID", "quartz")

	rec, body := do(t, srv, "GET", "/v1/debug/journal", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/journal=%d %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type=%q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal lines=%d body=%s", len(lines), body)
	}
	var st semdisco.StoredTrace
	if err := json.Unmarshal([]byte(lines[0]), &st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "sampled" || st.Query != "COVID" || len(st.Spans) == 0 {
		t.Fatalf("oldest line=%+v", st)
	}
}

// TestDebugJournalDisabled: the slow and journal views read the trace
// store, so disabling tracing 404s them with it.
func TestDebugJournalDisabled(t *testing.T) {
	srv := testServer(t)
	srv.backend.(*semdisco.Engine).ConfigureTracing(semdisco.TracingConfig{Disable: true})
	for _, path := range []string{"/v1/debug/journal", "/v1/debug/slow"} {
		if rec, _ := do(t, srv, "GET", path, ""); rec.Code != http.StatusNotFound {
			t.Fatalf("%s with tracing disabled: code=%d", path, rec.Code)
		}
	}
}

// TestDebugJournalLimit checks the JSON-lines export's ?n follows the
// shared limit-parameter convention: newest-n selection, oldest first, 400
// on garbage, and the unlimited default.
func TestDebugJournalLimit(t *testing.T) {
	srv := testTracedServer(t)
	burst(t, srv, "COVID", "quartz", "coronavirus vaccines")

	const base = "/v1/debug/journal?"
	queries := func(body []byte) []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var st semdisco.StoredTrace
			if err := json.Unmarshal([]byte(line), &st); err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			out = append(out, st.Query)
		}
		return out
	}
	rec, body := do(t, srv, "GET", base+"n=2", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("n=2 = %d %s", rec.Code, body)
	}
	if got := queries(body); len(got) != 2 || got[0] != "quartz" || got[1] != "coronavirus vaccines" {
		t.Fatalf("n=2 returned %q, want the newest two, oldest first", got)
	}

	// Explicit n=0 means no limit, same as the absent parameter.
	for _, path := range []string{base, base + "n=0"} {
		_, body = do(t, srv, "GET", path, "")
		if got := queries(body); len(got) != 3 {
			t.Fatalf("%s returned %d lines, want 3", path, len(got))
		}
	}

	for _, q := range []string{"n=abc", "n=-1", "n=2.5"} {
		rec, body := do(t, srv, "GET", base+q, "")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: code=%d %s", q, rec.Code, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body=%s", q, body)
		}
	}
}

// TestDebugSLOEngine checks the SLO endpoint reports both objectives after
// traffic, and 404s once the engine is disabled.
func TestDebugSLOEngine(t *testing.T) {
	srv := testServer(t)
	burst(t, srv, "COVID", "quartz hardness")

	rec, body := do(t, srv, "GET", "/v1/debug/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/slo=%d %s", rec.Code, body)
	}
	var ss semdisco.SLOSnapshot
	if err := json.Unmarshal(body, &ss); err != nil {
		t.Fatal(err)
	}
	if len(ss.Objectives) != 2 {
		t.Fatalf("objectives=%+v", ss.Objectives)
	}
	for _, o := range ss.Objectives {
		if o.State != "ok" {
			t.Fatalf("objective %s state=%q", o.Objective, o.State)
		}
		if len(o.Windows) != 3 || o.Windows[0].Total != 2 {
			t.Fatalf("objective %s windows=%+v", o.Objective, o.Windows)
		}
	}

	srv.backend.(*semdisco.Engine).ConfigureSLO(semdisco.SLOConfig{Disable: true})
	rec, _ = do(t, srv, "GET", "/v1/debug/slo", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("disabled slo: code=%d", rec.Code)
	}
}

func TestStartRecallProbe(t *testing.T) {
	srv := testServer(t)
	done := make(chan struct{})
	srv.StartRecallProbe(done, 5*time.Millisecond, 3)
	defer close(done)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		snap := srv.backend.MetricsRegistry().Snapshot()
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "semdisco_recall_at_k") {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("periodic probe never exported a recall gauge")
}
