package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semdisco"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	fed := semdisco.NewFederation()
	add := func(r *semdisco.Relation) {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(&semdisco.Relation{
		ID: "vaccines", Source: "WHO",
		Columns: []string{"Region", "Vaccine"},
		Rows:    [][]string{{"Europe", "Vaxzevria"}, {"Asia", "CoronaVac"}},
	})
	add(&semdisco.Relation{
		ID: "minerals", Source: "USGS",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}},
	})
	lex := semdisco.NewLexicon()
	lex.AddSynonyms("COVID", "coronavirus", "Vaxzevria", "CoronaVac")
	// Segments.Manual: no background compaction reclaims a tombstone
	// between a test's delete and its assertion on the segment stats.
	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.ANNS, Dim: 192, Seed: 1, Lexicon: lex,
		Segments: semdisco.SegmentsConfig{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng)
}

func do(t *testing.T, srv *Server, method, path, body string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestSearchWithSources(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":5,"sources":["USGS"]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	json.Unmarshal(body, &resp)
	for _, m := range resp.Matches {
		if m.RelationID == "vaccines" {
			t.Fatalf("source filter leaked: %+v", resp.Matches)
		}
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/datasets", `{"query":"COVID","k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("datasets=%d %s", rec.Code, body)
	}
	var resp DatasetsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Datasets) == 0 || resp.Datasets[0].Source != "WHO" {
		t.Fatalf("datasets=%+v", resp.Datasets)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Run a search first so the search metrics exist.
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	rec, body = do(t, srv, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics=%d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type=%q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`semdisco_searches_total{method="ANNS"} 1`,
		`semdisco_search_seconds_bucket{method="ANNS",le="+Inf"} 1`,
		`semdisco_search_stage_seconds_count{method="ANNS",stage="encode"} 1`,
		"semdisco_embed_cache_hits_total",
		"semdisco_index_inserts_total",
		`semdisco_index_build_seconds{phase="hnsw_insert"}`,
		`semdisco_http_requests_total{path="POST /v1/search",code="200"} 1`,
		"# TYPE semdisco_search_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestTracedSearch: a body that still carries the retired "trace" field
// gets the ordinary answer, and the query's stages are read from its
// stored span tree (the head sampler keeps the first query).
func TestTracedSearch(t *testing.T) {
	srv := testServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1,"trace":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	rec, body = do(t, srv, "GET", "/v1/debug/traces/"+resp.TraceID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace %s = %d %s", resp.TraceID, rec.Code, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	wantStages(t, tr, "encode", "retrieve", "rank")
}

func TestStatsObservability(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 3; i++ {
		do(t, srv, "POST", "/v1/search", `{"query":"COVID","k":1}`)
	}
	rec, body := do(t, srv, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats=%d", rec.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Searches["ANNS"]; got != 3 {
		t.Fatalf("searches=%d want 3", got)
	}
	lat, ok := stats.SearchLatency["ANNS"]
	if !ok || lat.Count != 3 || lat.P95MS <= 0 {
		t.Fatalf("latency=%+v", stats.SearchLatency)
	}
	if stats.CacheHits+stats.CacheMisses == 0 {
		t.Fatal("cache counters empty")
	}
	if stats.BuildSeconds["embed"] <= 0 {
		t.Fatalf("build_seconds=%v", stats.BuildSeconds)
	}
	if stats.UptimeSeconds <= 0 {
		t.Fatal("uptime missing")
	}
}
