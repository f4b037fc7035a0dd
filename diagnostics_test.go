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
	eng := diagEngine(t, Config{Method: ExS, Tracing: TracingConfig{HeadSampleEvery: 1}})
	queries := []string{"COVID", "vaccines in Europe", "mineral hardness", "COVID", "quartz"}
	for _, q := range queries {
		if _, err := eng.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	slow := eng.Traces().Slowest(3)
	if len(slow) != 3 {
		t.Fatalf("got %d slow queries, want 3", len(slow))
	}
	for i, st := range slow {
		if st.Method != "ExS" || st.Query == "" || st.K != 5 || st.Kind != "sampled" {
			t.Fatalf("trace %d = %+v", i, st)
		}
		if len(st.Spans) < 2 {
			t.Fatalf("trace %d has no stage spans: %+v", i, st)
		}
		if i > 0 && st.DurationMS > slow[i-1].DurationMS {
			t.Fatalf("not sorted slowest-first: %v after %v", st.DurationMS, slow[i-1].DurationMS)
		}
	}
	if s := eng.Traces(); s.Kept() != int64(len(queries)) || s.Len() != len(queries) {
		t.Fatalf("kept=%d retained=%d, want %d", s.Kept(), s.Len(), len(queries))
	}
}

// TestSlowQueryThresholdAndCounter: a query under the latency threshold is
// not retained as slow and moves no counter; the retention kind the store
// returns is what the slow and sampled counters count.
func TestSlowQueryThresholdAndCounter(t *testing.T) {
	eng := diagEngine(t, Config{
		Tracing: TracingConfig{LatencyThreshold: time.Hour, HeadSampleEvery: -1},
	})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if got := eng.Traces().Slowest(0); len(got) != 0 {
		t.Fatalf("sub-threshold query retained: %+v", got)
	}
	counted := func(base string) int64 {
		var n int64
		for name, v := range eng.MetricsRegistry().Snapshot().Counters {
			if strings.HasPrefix(name, base) {
				n += v
			}
		}
		return n
	}
	if n := counted("semdisco_slow_queries_total"); n != 0 {
		t.Fatalf("slow counter moved for a sub-threshold query: %d", n)
	}
	eng.ConfigureTracing(TracingConfig{LatencyThreshold: time.Nanosecond, HeadSampleEvery: -1})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if st := eng.Traces().Slowest(0); len(st) != 1 || st[0].Kind != "slow" {
		t.Fatalf("over-threshold query not retained as slow: %+v", st)
	}
	if n := counted("semdisco_slow_queries_total"); n != 1 {
		t.Fatalf("slow counter = %d, want 1", n)
	}
	eng.ConfigureTracing(TracingConfig{LatencyThreshold: time.Hour, HeadSampleEvery: 1})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if n := counted("semdisco_traces_sampled_total"); n != 1 {
		t.Fatalf("sampled counter = %d, want 1", n)
	}
}

func TestTraceSamplingJournal(t *testing.T) {
	eng := diagEngine(t, Config{
		Method:  ExS,
		Tracing: TracingConfig{HeadSampleEvery: 2},
	})
	for i := 0; i < 6; i++ {
		if _, err := eng.Search("COVID vaccines", 3); err != nil {
			t.Fatal(err)
		}
	}
	traces := eng.Traces().List(0)
	if len(traces) != 3 { // 1-in-2 of 6 queries
		t.Fatalf("got %d retained traces, want 3", len(traces))
	}
	for _, st := range traces {
		if st.Kind != "sampled" || len(st.Spans) == 0 {
			t.Fatalf("trace=%+v", st)
		}
	}
	var buf bytes.Buffer
	if err := eng.Traces().WriteJSONL(&buf, 0); err != nil {
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
	eng := diagEngine(t, Config{Tracing: TracingConfig{Disable: true}})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if eng.Traces() != nil {
		t.Fatal("trace store should be nil when tracing is disabled")
	}
	// Re-enabling via ConfigureTracing brings it back.
	eng.ConfigureTracing(TracingConfig{HeadSampleEvery: 1})
	if _, err := eng.Search("COVID", 3); err != nil {
		t.Fatal(err)
	}
	if got := eng.Traces().Slowest(0); len(got) != 1 {
		t.Fatalf("after re-enable: %+v", got)
	}
}

// wantStages asserts that each named stage is a span of the stored trace.
func wantStages(t *testing.T, st StoredTrace, stages ...string) {
	t.Helper()
	names := make(map[string]bool)
	for _, sp := range st.Spans {
		names[sp.Name] = true
	}
	for _, want := range stages {
		if !names[want] {
			t.Errorf("missing stage %q in %+v", want, st.Spans)
		}
	}
}

// A search must leave its full span tree in the trace store even with the
// metrics registry disabled.
func TestSearchTracedWithoutRegistry(t *testing.T) {
	eng := diagEngine(t, Config{Method: ExS, DisableMetrics: true})
	if eng.MetricsRegistry() != nil {
		t.Fatal("registry should be nil under DisableMetrics")
	}
	resp, err := eng.Do(context.Background(), Request{Query: "COVID", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches")
	}
	// The head sampler keeps the first query.
	stored, ok := eng.Traces().Get(resp.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained under DisableMetrics", resp.TraceID)
	}
	wantStages(t, stored, "encode", "scan", "rank")
	// Stats must degrade gracefully, not panic, without a registry.
	st := eng.Stats()
	if st.NumValues == 0 || st.Searches != nil {
		t.Fatalf("stats=%+v", st)
	}
	if got := eng.Traces().Len(); got != 1 {
		t.Fatalf("trace store without registry retained %d traces, want 1", got)
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
			if h.Clusters == nil {
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

	// Fresh engine: no retained traces, probe falls back to value texts.
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

	// The head sampler keeps the first query, so one served query is
	// enough for the probe to replay real traffic.
	if _, err := eng.Search("COVID", 5); err != nil {
		t.Fatal(err)
	}
	offered := eng.Traces().Offered()
	res, err = eng.RecallProbe(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "traces" || res.Probed+res.Skipped != 1 {
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
	// Probes bypass Do: they offer no trace to the store they sample from.
	if got := eng.Traces().Offered(); got != offered {
		t.Fatalf("probe offered %d traces", got-offered)
	}

	// Every retained query text is replayed once, newest first.
	eng.ConfigureTracing(TracingConfig{HeadSampleEvery: 1})
	for _, q := range []string{"COVID", "quartz", "COVID"} {
		if _, err := eng.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	if res, err = eng.RecallProbe(5); err != nil {
		t.Fatal(err)
	}
	var probed []string
	for _, s := range res.Samples {
		probed = append(probed, s.Query)
	}
	if res.Source != "traces" || strings.Join(probed, "|") != "COVID|quartz" {
		t.Fatalf("probe replayed %q from %s, want the two distinct queries newest first", probed, res.Source)
	}

	// Without tracing there is nothing to replay.
	eng.ConfigureTracing(TracingConfig{Disable: true})
	if res, err = eng.RecallProbe(5); err != nil || res.Source != "value_sample" {
		t.Fatalf("untraced probe=%+v err=%v", res, err)
	}
}

// TestTracesCostliestFirst: the trace store's costliest view lists an
// expensive query's trace above a cheaper, newer one's and honours n.
func TestTracesCostliestFirst(t *testing.T) {
	eng := diagEngine(t, Config{Method: ANNS, Lexicon: vaccineLexicon(),
		Tracing: TracingConfig{HeadSampleEvery: 1}})
	ctx := context.Background()
	costly, err := eng.Do(ctx, Request{Query: "COVID vaccines", K: 10, Feedback: true})
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := eng.Do(ctx, Request{Query: "quartz", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Cost.Total() <= cheap.Cost.Total() {
		t.Fatalf("costs %d and %d: the first query must cost more", costly.Cost.Total(), cheap.Cost.Total())
	}
	top := eng.Traces().Costliest(0)
	if len(top) != 2 || top[0].TraceID != costly.TraceID || top[1].TraceID != cheap.TraceID {
		t.Fatalf("costliest = %+v, want %s then %s", top, costly.TraceID, cheap.TraceID)
	}
	if top[0].Cost != costly.Cost.Total() {
		t.Errorf("stored cost %d, response cost %d", top[0].Cost, costly.Cost.Total())
	}
	if got := eng.Traces().Costliest(1); len(got) != 1 || got[0].TraceID != costly.TraceID {
		t.Errorf("Costliest(1) = %+v", got)
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
	loaded.ConfigureTracing(TracingConfig{HeadSampleEvery: 1})
	for _, q := range []string{"COVID", "quartz"} {
		if _, err := loaded.Search(q, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := loaded.Traces().Slowest(0); len(got) != 2 {
		t.Fatalf("tracing config not applied to loaded engine: %d traces retained, want 2", len(got))
	}
}
