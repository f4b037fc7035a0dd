package semdisco

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func diagEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Dim == 0 {
		cfg.Dim = 96
	}
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	eng, err := Open(vaccineFederation(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSlowQueriesAfterBurst(t *testing.T) {
	eng := diagEngine(t, Config{Method: ExS})
	queries := []string{"COVID", "vaccines in Europe", "mineral hardness", "COVID", "quartz"}
	for _, q := range queries {
		if _, err := eng.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	slow := eng.SlowQueries(3)
	if len(slow) != 3 {
		t.Fatalf("got %d slow queries, want 3", len(slow))
	}
	for i, sq := range slow {
		if sq.Method != "ExS" || sq.Query == "" || sq.K != 5 {
			t.Fatalf("record %d = %+v", i, sq)
		}
		if len(sq.Stages) == 0 {
			t.Fatalf("record %d has no stage trace: %+v", i, sq)
		}
		if i > 0 && sq.DurationMS > slow[i-1].DurationMS {
			t.Fatalf("not sorted slowest-first: %v after %v", sq.DurationMS, slow[i-1].DurationMS)
		}
	}
	st := eng.SlowLogStats()
	if st.Recorded != int64(len(queries)) || st.Retained != len(queries) {
		t.Fatalf("stats=%+v", st)
	}
}

func TestSlowQueryThresholdAndCounter(t *testing.T) {
	eng := diagEngine(t, Config{
		Diagnostics: DiagnosticsConfig{SlowLogThreshold: time.Hour},
	})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if got := eng.SlowQueries(0); len(got) != 0 {
		t.Fatalf("sub-threshold query retained: %+v", got)
	}
	st := eng.SlowLogStats()
	if st.Recorded != 0 || st.Retained != 0 || st.ThresholdMS != time.Hour.Seconds()*1000 {
		t.Fatalf("stats=%+v", st)
	}
	// No query crossed the threshold, so the slow counter must not move.
	for name := range eng.MetricsRegistry().Snapshot().Counters {
		if strings.HasPrefix(name, "semdisco_slow_queries_total") {
			t.Fatalf("slow counter incremented: %s", name)
		}
	}
}

func TestTraceSamplingJournal(t *testing.T) {
	eng := diagEngine(t, Config{
		Method:      ExS,
		Diagnostics: DiagnosticsConfig{TraceSampleEvery: 2},
	})
	for i := 0; i < 6; i++ {
		if _, err := eng.Search("COVID vaccines", 3); err != nil {
			t.Fatal(err)
		}
	}
	j := eng.Journal()
	if j == nil {
		t.Fatal("journal nil with diagnostics enabled")
	}
	events := j.Events(0)
	if len(events) != 3 { // 1-in-2 of 6 queries
		t.Fatalf("got %d journal events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Kind != "sampled" || len(ev.Stages) == 0 {
			t.Fatalf("event=%+v", ev)
		}
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines=%d", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("bad jsonl line %q: %v", lines[0], err)
	}
}

func TestDiagnosticsDisabled(t *testing.T) {
	eng := diagEngine(t, Config{Diagnostics: DiagnosticsConfig{Disable: true}})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if eng.SlowQueries(0) != nil || eng.Journal() != nil {
		t.Fatal("diagnostics surfaces should be nil when disabled")
	}
	// Re-enabling via ConfigureDiagnostics brings them back.
	eng.ConfigureDiagnostics(DiagnosticsConfig{})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if got := eng.SlowQueries(0); len(got) != 1 {
		t.Fatalf("after re-enable: %+v", got)
	}
}

// Satellite (c): traced search must return the full stage breakdown even
// with the metrics registry disabled.
func TestSearchTracedWithoutRegistry(t *testing.T) {
	eng := diagEngine(t, Config{Method: ExS, DisableMetrics: true})
	if eng.MetricsRegistry() != nil {
		t.Fatal("registry should be nil under DisableMetrics")
	}
	resp, err := eng.Do(context.Background(), Request{Query: "COVID", K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	matches, stages := resp.Matches, resp.Stages
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if len(stages) == 0 {
		t.Fatal("no stage timings under DisableMetrics")
	}
	names := make(map[string]bool)
	for _, s := range stages {
		names[s.Name] = true
	}
	if !names["encode"] {
		t.Fatalf("missing encode stage: %+v", stages)
	}
	// Stats must degrade gracefully, not panic, without a registry.
	st := eng.Stats()
	if st.NumValues == 0 || st.Searches != nil {
		t.Fatalf("stats=%+v", st)
	}
	// Diagnostics still work without a registry.
	if got := eng.SlowQueries(0); len(got) != 1 {
		t.Fatalf("slow log without registry: %+v", got)
	}
}

func TestEngineIndexHealth(t *testing.T) {
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng := diagEngine(t, Config{
			Method: m,
			CTS:    CTSOptions{MinClusterSize: 4, UMAPEpochs: 60},
		})
		h := eng.IndexHealth()
		if h.Method != m.String() || h.Values != eng.NumValues() {
			t.Fatalf("%v: health=%+v", m, h)
		}
		snap := eng.MetricsRegistry().Snapshot()
		switch m {
		case ANNS:
			if h.Graph == nil || h.Graph.ReachableFraction != 1 {
				t.Fatalf("ANNS graph=%+v", h.Graph)
			}
			if _, ok := snap.Gauges["semdisco_index_reachable_fraction"]; !ok {
				t.Fatal("reachable gauge not exported")
			}
		case CTS:
			if h.Graphs == nil || h.Clusters == nil {
				t.Fatalf("CTS health=%+v", h)
			}
			if _, ok := snap.Gauges["semdisco_index_cluster_size_cv"]; !ok {
				t.Fatal("cluster CV gauge not exported")
			}
			if _, ok := snap.Gauges["semdisco_index_medoid_drift_mean"]; !ok {
				t.Fatal("medoid drift gauge not exported")
			}
		}
	}
}

func TestEngineRecallProbe(t *testing.T) {
	eng := diagEngine(t, Config{Method: ANNS, Lexicon: vaccineLexicon()})

	// Fresh engine: no served queries, probe falls back to value texts.
	res, err := eng.RecallProbe(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "value_sample" || res.Probed == 0 {
		t.Fatalf("fresh probe=%+v", res)
	}
	if res.Recall < 0 || res.Recall > 1 {
		t.Fatalf("recall=%v out of [0,1]", res.Recall)
	}

	// After real traffic the probe replays the recent-query ring.
	for _, q := range []string{"COVID", "mineral hardness"} {
		if _, err := eng.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	res, err = eng.RecallProbe(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "recent_queries" {
		t.Fatalf("warm probe=%+v", res)
	}
	if res.Method != "ANNS" || res.K != 5 {
		t.Fatalf("probe=%+v", res)
	}
	found := false
	for name := range eng.MetricsRegistry().Snapshot().Gauges {
		if strings.HasPrefix(name, "semdisco_recall_at_k") {
			found = true
		}
	}
	if !found {
		t.Fatal("recall gauge not exported")
	}
	// Probes must not pollute the slow log they sample from.
	if got := eng.SlowLogStats().Recorded; got != 2 {
		t.Fatalf("probe polluted slow log: recorded=%d", got)
	}
}

func TestLoadedEngineHasDiagnostics(t *testing.T) {
	eng := diagEngine(t, Config{Method: ExS})
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded.ConfigureDiagnostics(DiagnosticsConfig{TraceSampleEvery: 1})
	if _, err := loaded.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if len(loaded.SlowQueries(0)) != 1 || loaded.Journal().Len() != 1 {
		t.Fatal("diagnostics not active on loaded engine")
	}
}
