package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"semdisco"
)

// TestDebugWorkloadEngine checks the single-node workload endpoint: heavy
// hitters fold query case/whitespace, and the costliest board is populated.
func TestDebugWorkloadEngine(t *testing.T) {
	srv := testServer(t)
	burst(t, srv, "COVID", "covid", "quartz hardness")

	rec, body := do(t, srv, "GET", "/v1/debug/workload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/workload=%d %s", rec.Code, body)
	}
	var ws semdisco.WorkloadSnapshot
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Queries != 3 {
		t.Fatalf("queries=%d, want 3", ws.Queries)
	}
	if len(ws.HeavyHitters) == 0 || ws.HeavyHitters[0].Query != "covid" || ws.HeavyHitters[0].Count != 2 {
		t.Fatalf("heavy hitters=%+v", ws.HeavyHitters)
	}
	if len(ws.Costliest) == 0 || ws.Costliest[0].Cost.Total() == 0 {
		t.Fatalf("costliest=%+v", ws.Costliest)
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

// TestDebugWorkloadCluster runs a skewed query mix against a 4-shard
// cluster and checks /v1/debug/workload reports heavy hitters and a valid
// load-skew gauge, and /v1/debug/slo covers the cluster search path.
func TestDebugWorkloadCluster(t *testing.T) {
	fed := semdisco.NewFederation()
	for i := 0; i < 12; i++ {
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
		Shards:    4,
		Policy:    semdisco.ShardRoundRobin,
		CacheSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCluster(cl)

	// Skewed mix: "common" dominates, plus a tail of distinct queries.
	burst(t, srv, "common", "common", "common", "val1", "val7")

	rec, body := do(t, srv, "GET", "/v1/debug/workload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/workload=%d %s", rec.Code, body)
	}
	var ws semdisco.WorkloadSnapshot
	if err := json.Unmarshal(body, &ws); err != nil {
		t.Fatal(err)
	}
	if ws.Queries != 5 {
		t.Fatalf("queries=%d, want 5", ws.Queries)
	}
	if len(ws.HeavyHitters) == 0 || ws.HeavyHitters[0].Query != "common" || ws.HeavyHitters[0].Count != 3 {
		t.Fatalf("heavy hitters=%+v", ws.HeavyHitters)
	}
	if len(ws.ShardLoad) != 4 {
		t.Fatalf("shard load=%v, want 4 shards", ws.ShardLoad)
	}
	var routed int64
	for _, v := range ws.ShardLoad {
		routed += v
	}
	if routed == 0 {
		t.Fatal("no sub-queries recorded against any shard")
	}
	if ws.LoadGini < 0 || ws.LoadGini >= 1 {
		t.Fatalf("load gini=%v out of range", ws.LoadGini)
	}
	if ws.LoadImbalance < 1 {
		t.Fatalf("load imbalance=%v, want ≥ 1", ws.LoadImbalance)
	}

	rec, body = do(t, srv, "GET", "/v1/debug/slo", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/slo=%d %s", rec.Code, body)
	}
	var ss semdisco.SLOSnapshot
	if err := json.Unmarshal(body, &ss); err != nil {
		t.Fatal(err)
	}
	if len(ss.Objectives) != 2 || ss.Objectives[0].State != "ok" {
		t.Fatalf("cluster slo=%+v", ss)
	}

	// The workload gauges made it onto the metrics surface.
	rec, body = do(t, srv, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics=%d", rec.Code)
	}
	for _, metric := range []string{"semdisco_workload_queries_total", "semdisco_workload_shard_load_gini", "semdisco_slo_burn_rate"} {
		if !strings.Contains(string(body), metric) {
			t.Fatalf("metrics output missing %s", metric)
		}
	}
}

// TestDebugJournalLimit checks the JSON-lines export's ?n follows the
// shared limit-parameter convention on both of its paths: newest-n
// selection, oldest first, 400 on garbage, and the unlimited default.
func TestDebugJournalLimit(t *testing.T) {
	srv := testTracedServer(t)
	burst(t, srv, "COVID", "quartz", "coronavirus vaccines")

	for _, base := range []string{"/v1/debug/journal?", "/v1/debug/traces?format=jsonl&"} {
		queries := func(body []byte) []string {
			var out []string
			for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
				var st semdisco.StoredTrace
				if err := json.Unmarshal([]byte(line), &st); err != nil {
					t.Fatalf("%s: bad line %q: %v", base, line, err)
				}
				out = append(out, st.Query)
			}
			return out
		}
		rec, body := do(t, srv, "GET", base+"n=2", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%sn=2 = %d %s", base, rec.Code, body)
		}
		if got := queries(body); len(got) != 2 || got[0] != "quartz" || got[1] != "coronavirus vaccines" {
			t.Fatalf("%sn=2 returned %q, want the newest two, oldest first", base, got)
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
				t.Fatalf("%s%s: code=%d %s", base, q, rec.Code, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s%s: error body=%s", base, q, body)
			}
		}
	}
}
