package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"semdisco"
)

// covidServer serves the two-relation covid corpus of testServer with the
// given method.
func covidServer(t *testing.T, method semdisco.Method) *Server {
	t.Helper()
	fed := semdisco.NewFederation()
	for _, r := range []*semdisco.Relation{
		{ID: "vaccines", Source: "WHO", Columns: []string{"Region", "Vaccine"},
			Rows: [][]string{{"Europe", "Vaxzevria"}, {"Asia", "CoronaVac"}}},
		{ID: "minerals", Source: "USGS", Columns: []string{"Mineral", "Hardness"},
			Rows: [][]string{{"Quartz", "7"}}},
	} {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	lex := semdisco.NewLexicon()
	lex.AddSynonyms("COVID", "coronavirus", "Vaxzevria", "CoronaVac")
	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: method, Dim: 64, Seed: 1, Lexicon: lex,
		Segments: semdisco.SegmentsConfig{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng)
}

// TestSearchAllocBudget bounds what one POST /v1/search allocates through
// Server.ServeHTTP, request and recorder included: 63 (ExS) and 60 (CTS)
// when this budget was set, where the request path's reflection-based JSON,
// per-request metric labels and per-token encoder strings had cost 111 and
// 126, and CTS's per-call plans, selections and hit lists another 15; at
// most 10% more is allowed. The request path
// around the method — body decode, query encoding, metrics, trace
// bookkeeping, response encode — is most of that count, so a change that
// puts a reflection pass or a label string back on it fails here.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	for _, tc := range []struct {
		method semdisco.Method
		budget float64
	}{
		{semdisco.ExS, 63},
		{semdisco.CTS, 60},
	} {
		t.Run(tc.method.String(), func(t *testing.T) {
			srv := covidServer(t, tc.method)
			const body = `{"query":"covid vaccines in europe","k":10}`
			allocs := testing.AllocsPerRun(200, func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
			t.Logf("%s: %v allocations per request", tc.method, allocs)
			if limit := tc.budget * 1.1; allocs > limit {
				t.Fatalf("%s search allocates %v times per request, budget %v (%v + 10%%)", tc.method, allocs, limit, tc.budget)
			}
		})
	}
}
