package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"semdisco"
)

func testClusterServer(t *testing.T) *Server {
	t.Helper()
	fed := semdisco.NewFederation()
	for i := 0; i < 8; i++ {
		r := &semdisco.Relation{
			ID:      fmt.Sprintf("rel-%d", i),
			Source:  "src",
			Columns: []string{"a", "b"},
			Rows:    [][]string{{fmt.Sprintf("val%d", i), "common"}},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := semdisco.NewCluster(fed, semdisco.ClusterConfig{
		Config:    semdisco.Config{Method: semdisco.ExS, Dim: 64, Seed: 1},
		Shards:    2,
		Policy:    semdisco.ShardRoundRobin,
		CacheSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewCluster(cl)
}

func TestClusterSearchEndpoint(t *testing.T) {
	srv := testClusterServer(t)
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"common","k":5}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	if resp.Degraded {
		t.Fatal("unexpected degradation")
	}
	// Second identical query comes from the cluster's result cache.
	_, body = do(t, srv, "POST", "/v1/search", `{"query":"common","k":5}`)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit {
		t.Error("second search should report cache_hit")
	}
}

func TestClusterDeleteRelationEndpoint(t *testing.T) {
	srv := testClusterServer(t)
	// Warm the router's result cache with a query the victim answers.
	rec, body := do(t, srv, "POST", "/v1/search", `{"query":"common","k":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	rec, body = do(t, srv, "DELETE", "/v1/relations/rel-3", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete=%d %s", rec.Code, body)
	}
	// The delete must have purged the cache: the same query is answered
	// fresh and no longer serves the tombstoned relation.
	rec, body = do(t, srv, "POST", "/v1/search", `{"query":"common","k":8}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("search=%d %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("stale cache entry served after delete")
	}
	for _, m := range resp.Matches {
		if m.RelationID == "rel-3" {
			t.Fatalf("deleted relation still served: %+v", resp.Matches)
		}
	}
	rec, _ = do(t, srv, "DELETE", "/v1/relations/rel-3", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("double delete=%d, want 404", rec.Code)
	}
}
