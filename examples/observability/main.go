// Observability: run a few searches, inspect the stored span tree of one
// query and the engine's aggregated statistics (latency quantiles, cache
// effectiveness, index-build phase costs). Run with:
//
//	go run ./examples/observability
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"semdisco"
)

func main() {
	fed := semdisco.NewFederation()
	must(fed.Add(&semdisco.Relation{
		ID:      "vaccines",
		Source:  "WHO",
		Caption: "COVID-19 vaccination coverage",
		Columns: []string{"Region", "Vaccine", "Doses"},
		Rows: [][]string{
			{"Europe", "Vaxzevria", "120000"},
			{"Asia", "CoronaVac", "340000"},
			{"Americas", "Comirnaty", "510000"},
		},
	}))
	must(fed.Add(&semdisco.Relation{
		ID:      "minerals",
		Source:  "USGS",
		Caption: "Mineral hardness",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}, {"Talc", "1"}},
	}))

	lex := semdisco.NewLexicon()
	lex.AddSynonyms("COVID", "coronavirus", "Vaxzevria", "CoronaVac", "Comirnaty")

	// Metrics are on by default; Config.DisableMetrics turns them off.
	// Tracing is too — HeadSampleEvery: 1 retains every trace instead of
	// only interesting ones, so the example below can always show one.
	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.CTS, Dim: 192, Seed: 1, Lexicon: lex,
		Tracing: semdisco.TracingConfig{HeadSampleEvery: 1},
	})
	if err != nil {
		log.Fatal(err)
	}

	resp, err := eng.Do(context.Background(), semdisco.Request{
		Query: "COVID vaccines in Europe", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matches:")
	for _, m := range resp.Matches {
		fmt.Printf("  %-10s score=%.3f\n", m.RelationID, m.Score)
	}

	// Every search runs under a span tree offered to the trace store; look
	// this one up by its trace ID and render it by its parent links. A
	// served engine exposes the same tree at /v1/debug/traces/{trace_id}.
	if st, ok := eng.Traces().Get(resp.TraceID); ok {
		fmt.Printf("\nstored trace %s (kind=%s, %.3fms):\n", st.TraceID, st.Kind, st.DurationMS)
		printSpanTree(st.Spans)
	}

	// A few more queries to populate the latency histograms.
	for _, q := range []string{"mineral hardness", "coronavirus doses", "quartz"} {
		if _, err := eng.Search(q, 3); err != nil {
			log.Fatal(err)
		}
	}

	// Stats aggregates everything the engine observed since Open.
	st := eng.Stats()
	fmt.Printf("\nengine: %s  relations=%d values=%d clusters=%d\n",
		st.Method, st.NumRelations, st.NumValues, st.NumClusters)
	for method, n := range st.Searches {
		lat := st.SearchLatency[method]
		fmt.Printf("searches[%s]: %d  p50=%.3fms p95=%.3fms\n",
			method, n, lat.P50MS, lat.P95MS)
	}
	fmt.Printf("encoder cache: %d hits / %d misses (%.1f%% hit rate)\n",
		st.CacheHits, st.CacheMisses, 100*st.CacheHitRate)
	fmt.Println("index build phases:")
	for phase, sec := range st.BuildSeconds {
		fmt.Printf("  %-12s %.1fms\n", phase, sec*1000)
	}

	// The same store ranks its traces slowest first — what a served engine
	// answers at /v1/debug/slow — each with its full span tree.
	fmt.Println("\nslowest queries:")
	for _, st := range eng.Traces().Slowest(3) {
		fmt.Printf("  %-28q %8.3fms  %d spans, %d matches\n",
			st.Query, st.DurationMS, len(st.Spans), st.Matches)
	}

	// IndexHealth introspects the built index: for CTS, cluster balance and
	// medoid drift.
	h := eng.IndexHealth()
	fmt.Printf("\nindex health (%s, %d values):\n", h.Method, h.Values)
	if h.Clusters != nil {
		fmt.Printf("  clusters: %d, sizes %d..%d (cv=%.2f), medoid drift mean=%.4f max=%.4f\n",
			h.Clusters.Clusters, h.Clusters.MinSize, h.Clusters.MaxSize,
			h.Clusters.SizeCV, h.Clusters.MeanMedoidDrift, h.Clusters.MaxMedoidDrift)
	}

	// The recall probe replays the retained traces' queries through both
	// this index and an exhaustive scan, measuring how much the
	// approximation loses.
	res, err := eng.RecallProbe(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecall probe: recall@%d=%.3f over %d queries (source: %s)\n",
		res.K, res.Recall, res.Probed, res.Source)
}

// printSpanTree renders a stored trace's flat span list as an indented
// tree: children under their parents, the root (whose parent is absent
// from the trace) at the top level.
func printSpanTree(spans []semdisco.StoredSpan) {
	known := make(map[string]bool, len(spans))
	for _, sp := range spans {
		known[sp.SpanID] = true
	}
	children := make(map[string][]semdisco.StoredSpan)
	var roots []semdisco.StoredSpan
	for _, sp := range spans {
		if known[sp.ParentID] {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp semdisco.StoredSpan, depth int)
	walk = func(sp semdisco.StoredSpan, depth int) {
		fmt.Printf("  %*s%-14s %8.3fms  %v\n", 2*depth, "", sp.Name, sp.DurationMS, sp.Annotations)
		kids := children[sp.SpanID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartOffsetMS < kids[j].StartOffsetMS })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].StartOffsetMS < roots[j].StartOffsetMS })
	for _, r := range roots {
		walk(r, 0)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
