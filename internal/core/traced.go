package core

import (
	"context"
	"sync/atomic"
	"time"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
)

// Metric series names shared by the three searchers. All durations are
// seconds-valued Prometheus histograms/gauges.
const (
	// MetricSearches counts completed searches, labelled by method.
	MetricSearches = "semdisco_searches_total"
	// MetricSearchSeconds is end-to-end query latency, labelled by method.
	MetricSearchSeconds = "semdisco_search_seconds"
	// MetricStageSeconds is per-stage query latency, labelled by method and
	// stage ("encode", "scan", "retrieve", "medoid_match", "descent", "rank").
	MetricStageSeconds = "semdisco_search_stage_seconds"
	// MetricBuildSeconds is index-build phase wall clock, labelled by phase
	// ("embed", "umap", "hdbscan", "pq_train", "hnsw_insert"). pq_train and
	// hnsw_insert are recorded by ANNS's vector collection and do not
	// overlap; CTS builds no collection, so it records neither.
	MetricBuildSeconds = "semdisco_index_build_seconds"
	// MetricClusters is the CTS cluster count.
	MetricClusters = "semdisco_index_clusters"
	// MetricValues is the number of indexed value vectors.
	MetricValues = "semdisco_index_values"

	// MetricSlowQueries counts queries whose trace was retained as slow (at
	// or over the trace latency threshold), labelled by method.
	MetricSlowQueries = "semdisco_slow_queries_total"
	// MetricSampledTraces counts queries whose trace was retained by
	// head-based 1-in-M sampling, labelled by method.
	MetricSampledTraces = "semdisco_traces_sampled_total"
	// MetricRecallAtK is the latest online recall probe result, labelled by
	// method and k. Values in [0,1]; a falling gauge means the approximate
	// index is silently losing ground truth.
	MetricRecallAtK = "semdisco_recall_at_k"
	// MetricReachableFraction is the share of ANNS's HNSW layer-0 nodes
	// reachable from the entry point; below 1.0 some values can never be
	// retrieved.
	MetricReachableFraction = "semdisco_index_reachable_fraction"
	// MetricPQDistortion is the mean sampled PQ reconstruction error.
	MetricPQDistortion = "semdisco_index_pq_distortion_mean"
	// MetricClusterSizeCV is the coefficient of variation of CTS cluster
	// sizes; growth means a few clusters dominate query cost.
	MetricClusterSizeCV = "semdisco_index_cluster_size_cv"
	// MetricMedoidDrift is the mean CTS medoid drift (1 - cosine between a
	// cluster's build-time medoid and its current centroid).
	MetricMedoidDrift = "semdisco_index_medoid_drift_mean"
	// MetricSegments is the number of segments in the store (sealed plus a
	// non-empty mutable one).
	MetricSegments = "semdisco_index_segments"
	// MetricTombstonedRels is the number of tombstoned relations awaiting
	// compaction.
	MetricTombstonedRels = "semdisco_index_tombstoned_relations"
	// MetricSeals counts mutable-segment seals (freeze + background index
	// build).
	MetricSeals = "semdisco_segment_seals_total"
	// MetricCompactions counts completed compactions, labelled by trigger
	// (segment_count, dead_fraction, medoid_drift, pq_distortion, manual,
	// interval).
	MetricCompactions = "semdisco_compactions_total"
	// MetricCompactionSeconds is compaction wall clock (merge + rebuild +
	// swap), a histogram.
	MetricCompactionSeconds = "semdisco_compaction_seconds"
)

// MetricHelp maps the engine's metric base names to their Prometheus
// HELP texts, registered on the registry at engine construction so the
// exposition emits both # HELP and # TYPE per the text-format spec.
var MetricHelp = map[string]string{
	MetricSearches:                      "Completed searches by method.",
	MetricSearchSeconds:                 "End-to-end query latency in seconds by method.",
	MetricStageSeconds:                  "Per-stage query latency in seconds by method and stage.",
	MetricBuildSeconds:                  "Index-build phase wall-clock seconds by phase.",
	MetricClusters:                      "CTS cluster count.",
	MetricValues:                        "Number of indexed value vectors.",
	MetricSlowQueries:                   "Queries retained as slow traces by method.",
	MetricSampledTraces:                 "Queries whose trace was retained by head sampling, by method.",
	MetricRecallAtK:                     "Latest online recall probe result by method and k.",
	MetricReachableFraction:             "Share of HNSW layer-0 nodes reachable from the entry point.",
	MetricPQDistortion:                  "Mean sampled PQ reconstruction error.",
	MetricClusterSizeCV:                 "Coefficient of variation of CTS cluster sizes.",
	MetricMedoidDrift:                   "Mean CTS medoid drift since build.",
	MetricSegments:                      "Number of segments in the store.",
	MetricTombstonedRels:                "Tombstoned relations awaiting compaction.",
	MetricSeals:                         "Mutable-segment seals.",
	MetricCompactions:                   "Completed compactions by trigger.",
	MetricCompactionSeconds:             "Compaction wall-clock seconds.",
	"semdisco_embed_cache_hits_total":   "Encoder token-cache hits.",
	"semdisco_embed_cache_misses_total": "Encoder token-cache misses.",
}

// EncodedSearcher is the query contract of ExS, ANNS, CTS and the segment
// store: rank relations for an already-encoded query vector. It is also
// the shard contract of the cluster layer — the router encodes the query
// once and fans the vector out to every shard.
//
// The context carries everything per-query: cancellation (polled between
// ExS scan chunks and between HNSW hops, so an expired deadline interrupts
// the search mid-flight), the request trace the stage spans are recorded
// on (obs.TraceFrom; nil records nothing) and the cost accumulator the
// index layers charge (obs.CostFrom; nil charges nothing).
//
// Each implementation has one query body, searchBlock, which ranks a block
// of queries: a single query is a block of one (searchOne) and
// SearchEncodedBatch passes its block through (searchBatch).
type EncodedSearcher interface {
	Searcher
	SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error)
	// SearchFiltered is SearchEncoded restricted to the relations allow
	// accepts — e.g. "only datasets from the WHO and ECDC members of the
	// federation". A nil allow accepts every relation.
	SearchFiltered(ctx context.Context, q []float32, k int, allow func(relationID string) bool) ([]Match, error)
	// searchBlock ranks relations for every query of a block: row i answers
	// qs[i] with at most ks[i] matches (nil when ks[i] ≤ 0), restricted to
	// the relations allow accepts, and charges costs[i] its work. o records
	// the stage spans; a block of one records its query's, a batch passes
	// the zero searchObs and records none.
	searchBlock(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost) ([][]Match, error)
	// metrics returns the searcher's query series on reg under method,
	// resolved once (queryMetricsCache).
	metrics(reg *obs.Registry, method string) *queryMetrics
}

// searchOne is SearchFiltered of every EncodedSearcher: the query runs
// through s's body as a block of one, its stages recorded under s's name
// on reg and the context's trace, its work charged to the context's cost
// accumulator.
func searchOne(ctx context.Context, s EncodedSearcher, reg *obs.Registry, q []float32, k int, allow func(string) bool) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	out, err := s.searchBlock(ctx, startSearch(ctx, s.metrics(reg, s.Name())), [][]float32{q}, []int{k}, allow, []*obs.Cost{obs.CostFrom(ctx)})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Search answers a keyword query on any encoded searcher: an "encode"
// stage embeds the query with enc, SearchEncoded ranks, and the completed
// query is counted under the searcher's name on reg (nil disables). It is
// the one text entry point — the Search(query, k) methods the Searcher
// contract asks of ExS, ANNS, CTS and the segment store all call it.
func Search(ctx context.Context, s EncodedSearcher, enc embed.Encoder, reg *obs.Registry, query string, k int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	o := startSearch(ctx, s.metrics(reg, s.Name()))
	sp := o.stage("encode")
	q := enc.Encode(query)
	o.endStage(sp)
	matches, err := s.SearchEncoded(ctx, q, k)
	if err == nil {
		o.finish()
	}
	return matches, err
}

// searchObs accumulates the per-query observability of one method: stage
// spans feed both the request trace (when the context carries one) and the
// method's stage histograms; finish records the query counter and total
// latency. The zero searchObs records no metrics.
type searchObs struct {
	m     *queryMetrics
	tr    *obs.Trace
	start time.Time
}

func startSearch(ctx context.Context, m *queryMetrics) searchObs {
	return searchObs{m: m, tr: obs.TraceFrom(ctx), start: time.Now()}
}

// as relabels o for a part of the query s runs — a segment's body inside
// the store's. A silent o stays silent.
func (o searchObs) as(s EncodedSearcher) searchObs {
	if o.m != nil {
		o.m = s.metrics(o.m.reg, s.Name())
	}
	return o
}

// stage begins a named span; pass the returned span to endStage.
func (o searchObs) stage(name string) *obs.Span {
	return o.tr.StartSpan(name)
}

// endStage completes a span and feeds its duration to the stage histogram.
func (o searchObs) endStage(sp *obs.Span) {
	name := sp.Name()
	d := sp.End()
	o.m.stage(name).Observe(d)
}

// queryMetrics is one method's query series on one registry, each
// resolved on first use: the searches counter, the latency histogram and
// one histogram per stage. A nil *queryMetrics records nothing.
type queryMetrics struct {
	reg      *obs.Registry
	method   string
	searches *obs.CounterRef
	seconds  *obs.HistogramRef
	stages   [len(stageNames)]*obs.HistogramRef
}

// stageNames are the stages ExS, ANNS, CTS and the segment store record.
var stageNames = [...]string{"encode", "scan", "retrieve", "medoid_match", "descent", "rank", "segments"}

func newQueryMetrics(reg *obs.Registry, method string) *queryMetrics {
	m := &queryMetrics{
		reg:      reg,
		method:   method,
		searches: reg.CounterRef(obs.L(MetricSearches, "method", method)),
		seconds:  reg.HistogramRef(obs.L(MetricSearchSeconds, "method", method)),
	}
	for i, name := range stageNames {
		m.stages[i] = reg.HistogramRef(obs.L(MetricStageSeconds, "method", method, "stage", name))
	}
	return m
}

// stage returns the named stage's histogram.
func (m *queryMetrics) stage(name string) *obs.Histogram {
	if m == nil || m.reg == nil {
		return nil
	}
	for i, s := range stageNames {
		if s == name {
			return m.stages[i].Get()
		}
	}
	return m.reg.Histogram(obs.L(MetricStageSeconds, "method", m.method, "stage", name))
}

// queryMetricsCache keeps a searcher's queryMetrics, so each query finds
// its series without building a label. A searcher embeds one; it rebuilds
// only if asked for another registry or name.
type queryMetricsCache struct {
	p atomic.Pointer[queryMetrics]
}

func (c *queryMetricsCache) metrics(reg *obs.Registry, method string) *queryMetrics {
	if m := c.p.Load(); m != nil && m.reg == reg && m.method == method {
		return m
	}
	m := newQueryMetrics(reg, method)
	c.p.Store(m)
	return m
}

// scanMark is how many points a traced query's collection searches had
// scored by a scan, not a graph walk, when a stage began: vectordb charges
// each such point to the query's ValuesScanned. An untraced or uncosted
// query takes no mark.
type scanMark struct {
	cost  *obs.Cost
	start int64
}

// scanned marks cost at the start of a stage that searches collections.
func (o searchObs) scanned(cost *obs.Cost) scanMark {
	if o.tr == nil || cost == nil {
		return scanMark{}
	}
	return scanMark{cost, cost.Report().ValuesScanned}
}

// annotate records on sp how many points the stage scored by a scan (0
// when every search walked) and returns sp.
func (m scanMark) annotate(sp *obs.Span) *obs.Span {
	if m.cost != nil {
		sp.AnnotateInt("scanned", int(m.cost.Report().ValuesScanned-m.start))
	}
	return sp
}

// finish records the completed query.
func (o searchObs) finish() {
	if o.m == nil {
		return
	}
	o.m.searches.Get().Inc()
	o.m.seconds.Get().Observe(time.Since(o.start))
}

// buildPhase runs fn and records its wall clock under the named build
// phase. Used by the index constructors.
func buildPhase(reg *obs.Registry, phase string, fn func()) {
	start := time.Now()
	fn()
	reg.Gauge(obs.L(MetricBuildSeconds, "phase", phase)).Add(time.Since(start).Seconds())
}
