package httpapi

import (
	"bytes"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"semdisco"
)

// metricCounts renders a /metrics scrape as one "series count" line per
// counter and per histogram (its _count), sorted: what a run of requests
// adds to the registry, with the timings left out.
func metricCounts(t *testing.T, srv *Server) string {
	t.Helper()
	_, body := do(t, srv, http.MethodGet, "/metrics", "")
	types := make(map[string]string)
	var lines []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		switch {
		case types[name] == "counter":
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
		default:
			continue
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestServerMetricSeries pins the metric series a fixed run of requests
// leaves — HTTP requests by route pattern and status (200, 400, 404, 405,
// 413, a batch, a DELETE through a path pattern, a path the mux redirects
// and a request no pattern matches),
// search stages, searches and, behind the coordinator, the cluster's — to
// testdata/metric_series_<mode>.txt, the series and counts the server
// produced when it still matched each route twice and built every label
// per request.
func TestServerMetricSeries(t *testing.T) {
	forEachMode(t, modeConfig(), func(t *testing.T, m modeServer, _ *semdisco.Engine) {
		srv := m.srv
		for _, r := range []struct {
			method, path, body string
			status             int
		}{
			{"POST", "/v1/search", `{"query":"abc bcd","k":5}`, 200},
			{"POST", "/v1/search", `{"query":"cde","k":3}`, 200},
			{"POST", "/v1/search", `{"query":""}`, 400},
			{"POST", "/v1/search", `{"query":`, 400},
			{"GET", "/v1/search", "", 405},
			{"GET", "/no/such/route", "", 404},
			{"POST", "/v1/search", `{"query":"` + strings.Repeat("a", maxBodyBytes) + `"}`, 413},
			{"POST", "/v1/search/batch", `{"queries":[{"query":"abc"},{"query":"def","k":2}]}`, 200},
			{"DELETE", "/v1/relations/rel-003", "", 200},
			{"PATCH", "/v1/relations/rel-004", "", 405},
			{"GET", "/v1//stats", "", 301}, // the mux's path-cleaning redirect
			{"OPTIONS", "*", "", 400},      // no pattern matched: "unmatched"
		} {
			if rec, body := do(t, srv, r.method, r.path, r.body); rec.Code != r.status {
				t.Fatalf("%s %s = %d, want %d: %.200s", r.method, r.path, rec.Code, r.status, body)
			}
		}
		got := metricCounts(t, srv)
		path := filepath.Join("testdata", "metric_series_"+m.mode+".txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("metric series differ from %s; got:\n%s", path, got)
		}
	})
}

// TestAccessLogAnnotations: with a logger attached, each request's access
// log line carries what its handler annotated — query_len and k for a
// search, batch for a batch, relation for a write.
func TestAccessLogAnnotations(t *testing.T) {
	var logs bytes.Buffer
	srv := New(mustOpen(t, netFed(t, 8), modeConfig()), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	for _, r := range []struct{ method, path, body, want string }{
		{"POST", "/v1/search", `{"query":"abc bcd","k":7}`, "query_len=7 k=7"},
		{"POST", "/v1/search/batch", `{"queries":[{"query":"abc"},{"query":"def"}]}`, "batch=2"},
		{"DELETE", "/v1/relations/rel-003", "", "relation=rel-003"},
	} {
		logs.Reset()
		if rec, body := do(t, srv, r.method, r.path, r.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d: %s", r.method, r.path, rec.Code, body)
		}
		if line := logs.String(); !strings.Contains(line, r.want) || !strings.Contains(line, "trace_id=") {
			t.Fatalf("%s %s: access log %q lacks %q", r.method, r.path, line, r.want)
		}
	}
}
