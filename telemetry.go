package semdisco

import (
	"context"
	"strconv"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// TracingConfig tunes the span-tree tracing subsystem. Every search runs
// under a 128-bit trace ID with a root span and per-stage child spans; a
// tail-based store retains the traces whose outcome makes them worth a
// human's time — errors, degraded scatter-gathers, latency over the
// threshold — plus a 1-in-M head sample for baseline comparison. The
// store is the one retained-query record: the trace list, the slowest-first
// view and the JSON-lines export all read it. The zero value enables
// tracing with defaults (256-trace store, no latency criterion, head sample
// 1 in 64).
type TracingConfig struct {
	// Disable turns trace retention off: the trace store is not created.
	Disable bool
	// StoreSize is the retained-trace ring capacity; default 256.
	StoreSize int
	// LatencyThreshold retains every trace whose request ran at least this
	// long. Zero disables the latency criterion; errors and degradation
	// still retain regardless.
	LatencyThreshold time.Duration
	// HeadSampleEvery keeps 1 in every M otherwise-uninteresting traces so
	// the store always holds healthy baselines. Zero selects the default of
	// 64; 1 keeps every trace; negative disables head sampling entirely.
	HeadSampleEvery int
}

// StoredTrace is one retained trace: the retention reason, the request
// summary and the complete span records. See obs.StoredTrace.
type StoredTrace = obs.StoredTrace

// StoredSpan is one completed span of a stored trace, positioned in the
// span tree by its ParentID. See obs.StoredSpan.
type StoredSpan = obs.StoredSpan

// CostReport is the per-query work accounting attached to search results:
// distance computations, HNSW hops, PQ table lookups, values and bytes
// scanned, candidates generated and pruned, cache hits. See
// obs.CostReport.
type CostReport = obs.CostReport

// SLOSnapshot is the SLO engine's point-in-time view: per-objective
// multi-window burn rates and alert states. See obs.SLOSnapshot.
type SLOSnapshot = obs.SLOSnapshot

// SLOConfig tunes the service-level-objective engine: availability and
// latency objectives evaluated over rolling 5m/1h/6h windows with
// fast/slow burn-rate alert states (the Google SRE multiwindow policy).
// The zero value enables the engine with defaults: 99.9% availability,
// 99% of requests under 500ms.
type SLOConfig struct {
	// Disable turns the SLO engine off; /v1/debug/slo answers 404 and no
	// burn-rate gauges are exported.
	Disable bool
	// Availability is the target fraction of non-failing (and, behind a
	// NetCoordinator, non-degraded) requests, e.g. 0.999. Zero selects
	// 0.999.
	Availability float64
	// LatencyObjective is the target fraction of requests completing under
	// LatencyThreshold, e.g. 0.99. Zero selects 0.99.
	LatencyObjective float64
	// LatencyThreshold is the latency objective's cutoff. Zero selects
	// 500ms.
	LatencyThreshold time.Duration
}

// telemetry is the per-query bookkeeping state every Backend embeds: the
// sinks a finished query is reported to and the two functions (observe,
// observeBatch) that report it. All sinks are nil-safe, so a disabled
// subsystem costs a nil check.
type telemetry struct {
	method Method
	// span names the root span.
	span   string
	reg    *obs.Registry   // nil when Config.DisableMetrics
	traces *obs.TraceStore // nil when Config.Tracing.Disable
	slo    *obs.SLOEngine  // nil when Config.SLO.Disable
	// latency is the histogram a retained trace's exemplar attaches to;
	// slow and sampled count the traces retained for each reason. All three
	// are resolved once, not per query.
	latency       *obs.HistogramRef
	slow, sampled *obs.CounterRef
}

// newTelemetry builds a backend's bookkeeping: latency names the
// histogram series exemplars attach to.
func newTelemetry(method Method, span, latency string, reg *obs.Registry, tc TracingConfig, sc SLOConfig) telemetry {
	return telemetry{method: method, span: span, reg: reg,
		traces:  newTraceStore(tc),
		slo:     newSLOEngine(sc, reg),
		latency: reg.HistogramRef(latency),
		slow:    reg.CounterRef(obs.L(core.MetricSlowQueries, "method", method.String())),
		sampled: reg.CounterRef(obs.L(core.MetricSampledTraces, "method", method.String())),
	}
}

// Method reports the backend's search strategy.
func (t *telemetry) Method() Method { return t.method }

// MetricsRegistry exposes the backend's metrics registry for in-process
// surfaces such as internal/httpapi's /metrics endpoint. Nil under
// Config.DisableMetrics — and a nil *obs.Registry is a valid value
// everywhere in this codebase: every method on it is a no-op. Tracing
// does not depend on the registry and keeps working without one.
func (t *telemetry) MetricsRegistry() *obs.Registry { return t.reg }

// Traces exposes the backend's tail-sampling trace store: retained span
// trees listable newest, slowest or costliest first, fetchable by trace ID
// and exportable as JSON lines. Nil when tracing is disabled.
func (t *telemetry) Traces() *obs.TraceStore { return t.traces }

// SLO exposes the backend's SLO burn-rate engine; nil when disabled.
func (t *telemetry) SLO() *obs.SLOEngine { return t.slo }

// newTraceStore builds the tail-sampling store for a config; nil when
// tracing is disabled.
func newTraceStore(tc TracingConfig) *obs.TraceStore {
	if tc.Disable {
		return nil
	}
	every := tc.HeadSampleEvery
	switch {
	case every == 0:
		every = 64
	case every < 0:
		every = 0
	}
	return obs.NewTraceStore(obs.TraceStoreConfig{
		Capacity:         tc.StoreSize,
		LatencyThreshold: tc.LatencyThreshold,
		HeadSampleEvery:  every,
	})
}

// newSLOEngine builds the engine for a config; nil when disabled.
func newSLOEngine(sc SLOConfig, reg *obs.Registry) *obs.SLOEngine {
	if sc.Disable {
		return nil
	}
	reg.SetHelp(obs.MetricSLOBurnRate,
		"Error-budget burn rate per objective and window; 1.0 burns the budget exactly at the sustainable rate.")
	return obs.NewSLOEngine(obs.SLOEngineConfig{
		AvailabilityObjective: sc.Availability,
		LatencyObjective:      sc.LatencyObjective,
		LatencyThreshold:      sc.LatencyThreshold,
	}, reg)
}

// ConfigureTracing replaces the backend's tracing subsystem, e.g. to apply
// a retention threshold to an engine restored with LoadEngine. Call it
// before serving traffic; it must not race with Do.
func (t *telemetry) ConfigureTracing(tc TracingConfig) { t.traces = newTraceStore(tc) }

// ConfigureSLO replaces the backend's SLO subsystem, e.g. to set
// objectives on a restored engine. Call it before serving traffic; it must
// not race with Do.
func (t *telemetry) ConfigureSLO(sc SLOConfig) { t.slo = newSLOEngine(sc, t.reg) }

// observe is the per-query bookkeeping of every backend, written once: run
// executes the query into the response's result under a root span — continuing a propagated trace
// when ctx carries one — with a cost accumulator in the context so the
// index layers account their work; the outcome then feeds the SLO engine
// (a degraded answer counts against availability) and the tail-based trace
// store, which keeps the query's text and cost with its span tree, links
// the latency histogram to a retained trace via an exemplar and whose
// retention kind drives the slow-query and sampled-trace counters.
func (t *telemetry) observe(ctx context.Context, req Request, run func(context.Context, *obs.Trace, *ClusterResult) error) (*Response, error) {
	if obs.CostFrom(ctx) == nil {
		ctx = obs.ContextWithCost(ctx, &obs.Cost{})
	}
	tr := obs.NewTraceFrom(ctx)
	root := tr.StartRoot(t.span).AnnotateInt("k", req.K)
	resp := &Response{}
	err := run(ctx, tr, &resp.ClusterResult)
	// Under a request ID that is the trace ID's rendering (the HTTP
	// server's default), the response reuses that string.
	requestID := obs.RequestIDFrom(ctx)
	resp.TraceID = tr.ID().Reuse(requestID)
	root.AnnotateInt("matches", len(resp.Matches)).
		AnnotateInt("distance_comps", int(resp.Cost.DistanceComps)).
		AnnotateInt("hnsw_hops", int(resp.Cost.HNSWHops)).
		AnnotateInt("pq_lookups", int(resp.Cost.PQLookups))
	dur := root.End()

	method := t.method.String()
	t.slo.Record(dur, err != nil || resp.Degraded)
	o := obs.TraceOutcome{
		Duration:  dur,
		Query:     req.Query,
		Method:    method,
		K:         req.K,
		Matches:   len(resp.Matches),
		Cost:      resp.Cost.Total(),
		Degraded:  resp.Degraded,
		RequestID: requestID,
	}
	if err != nil {
		o.Err = err.Error()
	}
	for _, se := range resp.ShardErrors {
		o.ShardErrors = append(o.ShardErrors, se.Error())
	}
	// A retained trace is linked from the latency histogram's current
	// bucket via an exemplar, so a p99 spike on /metrics resolves to a
	// stored span tree.
	kept, kind := t.traces.Offer(tr, o)
	if kept {
		t.latency.Get().SetExemplar(dur, resp.TraceID)
	}
	switch kind {
	case "slow":
		t.slow.Get().Inc()
	case "sampled":
		t.sampled.Get().Inc()
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// observeBatch is observe for a block of queries: run executes the whole
// batch under one root span (<span>_batch), every item carries that
// trace's ID, and the trace is offered to the store once, carrying the
// items' summed cost. Each item feeds the SLO engine with its amortized
// share of the batch latency. An empty batch is answered without running
// or tracing.
func (t *telemetry) observeBatch(ctx context.Context, queries []Query, run func(context.Context, *obs.Trace) ([]*ClusterResult, error)) ([]*Response, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	tr := obs.NewTraceFrom(ctx)
	root := tr.StartRoot(t.span+"_batch").AnnotateInt("queries", len(queries))
	results, err := run(ctx, tr)
	dur := root.End()

	method := t.method.String()
	id := tr.ID().String()
	o := obs.TraceOutcome{Duration: dur, Method: method + "_batch", K: len(queries),
		RequestID: obs.RequestIDFrom(ctx)}
	var out []*Response
	if err != nil {
		o.Err = err.Error()
		t.slo.Record(dur, true)
	} else {
		out = make([]*Response, len(results))
		resps := make([]Response, len(results))
		perItem := dur / time.Duration(len(queries))
		for i, r := range results {
			resps[i].ClusterResult = *r
			resps[i].TraceID = id
			out[i] = &resps[i]
			o.Degraded = o.Degraded || r.Degraded
			o.Cost += r.Cost.Total()
			if queries[i].K > 0 {
				t.slo.Record(perItem, r.Degraded)
			}
		}
	}
	if kept, _ := t.traces.Offer(tr, o); kept {
		t.latency.Get().SetExemplar(dur, id)
	}
	return out, err
}

// LatencySummary is the quantile snapshot of one latency histogram.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// EngineStats is a point-in-time snapshot of the engine's observability
// state: corpus shape, per-method query counters and latency quantiles,
// per-stage latency, encoder cache effectiveness and index-build phase
// durations.
type EngineStats struct {
	Method       string `json:"method"`
	NumRelations int    `json:"num_relations"`
	NumValues    int    `json:"num_values"`
	// NumClusters is 0 unless the method is CTS.
	NumClusters int `json:"num_clusters,omitempty"`
	// Segments describes the segment store: segment counts, tombstoned
	// volume, seal/compaction counters.
	Segments SegmentStats `json:"segments"`
	// Searches counts completed queries by method name.
	Searches map[string]int64 `json:"searches,omitempty"`
	// SearchLatency maps method name to end-to-end query latency.
	SearchLatency map[string]LatencySummary `json:"search_latency,omitempty"`
	// StageLatency maps "method/stage" to that stage's latency.
	StageLatency map[string]LatencySummary `json:"stage_latency,omitempty"`
	// Encoder token-cache effectiveness.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// BuildSeconds maps index-build phase ("embed", "umap", "hdbscan",
	// "pq_train", "hnsw_insert") to its wall-clock seconds.
	BuildSeconds map[string]float64 `json:"build_seconds,omitempty"`
}

// Stats snapshots the engine's metrics. With Config.DisableMetrics only
// the corpus-shape fields are populated.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Method:       e.Method().String(),
		NumRelations: e.store.NumLiveRelations(),
		NumValues:    e.store.NumLiveValues(),
		Segments:     e.store.Stats(),
	}
	if base, _ := e.store.Base(); base != nil {
		if cts, ok := base.(*core.CTS); ok {
			st.NumClusters = cts.NumClusters()
		}
	}
	if e.reg == nil {
		return st
	}
	snap := e.reg.Snapshot()
	for series, v := range snap.Counters {
		base, labels := obs.ParseName(series)
		switch base {
		case core.MetricSearches:
			if st.Searches == nil {
				st.Searches = make(map[string]int64)
			}
			st.Searches[labels["method"]] = v
		case "semdisco_embed_cache_hits_total":
			st.CacheHits = v
		case "semdisco_embed_cache_misses_total":
			st.CacheMisses = v
		}
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	for series, v := range snap.Gauges {
		base, labels := obs.ParseName(series)
		if base == core.MetricBuildSeconds {
			if st.BuildSeconds == nil {
				st.BuildSeconds = make(map[string]float64)
			}
			st.BuildSeconds[labels["phase"]] = v
		}
	}
	for series, h := range snap.Histograms {
		base, labels := obs.ParseName(series)
		switch base {
		case core.MetricSearchSeconds:
			if st.SearchLatency == nil {
				st.SearchLatency = make(map[string]LatencySummary)
			}
			st.SearchLatency[labels["method"]] = summarize(h)
		case core.MetricStageSeconds:
			if st.StageLatency == nil {
				st.StageLatency = make(map[string]LatencySummary)
			}
			st.StageLatency[labels["method"]+"/"+labels["stage"]] = summarize(h)
		}
	}
	return st
}

func summarize(h obs.HistSnapshot) LatencySummary {
	s := LatencySummary{
		Count: h.Count,
		P50MS: float64(h.Quantile(0.50)) / float64(time.Millisecond),
		P95MS: float64(h.Quantile(0.95)) / float64(time.Millisecond),
		P99MS: float64(h.Quantile(0.99)) / float64(time.Millisecond),
	}
	if h.Count > 0 {
		s.MeanMS = float64(h.Sum) / float64(h.Count) / float64(time.Millisecond)
	}
	return s
}

// IndexHealth is the engine's index self-diagnosis; see core.IndexHealth
// for the per-method sections.
type IndexHealth = core.IndexHealth

// IndexHealth introspects the built index: HNSW graph shape and
// reachability, PQ distortion, CTS cluster balance and medoid drift. The
// walk is O(nodes+edges) plus a bounded distortion sample — call it at
// diagnostic cadence, not per query. The first call after an ANNS build
// also links the graph rows the build left unlinked because every default
// query scans its collection, so it can take as long as that graph build. The
// headline figures are also exported as gauges on the metrics registry.
// Must not race with Add.
func (e *Engine) IndexHealth() IndexHealth {
	h := e.store.IndexHealth()
	if h.Graph != nil {
		e.reg.Gauge(core.MetricReachableFraction).Set(h.Graph.ReachableFraction)
	}
	if h.PQ != nil && h.PQ.Trained {
		e.reg.Gauge(core.MetricPQDistortion).Set(h.PQ.Distortion.Mean)
	}
	if h.Clusters != nil {
		e.reg.Gauge(core.MetricClusterSizeCV).Set(h.Clusters.SizeCV)
		e.reg.Gauge(core.MetricMedoidDrift).Set(h.Clusters.MeanMedoidDrift)
	}
	return h
}

// RecallResult is an online recall probe report; see core.RecallResult.
type RecallResult = core.RecallResult

// recallProbeQueries bounds how many queries one probe replays.
const recallProbeQueries = 16

// RecallProbe replays the distinct query texts of the retained traces,
// newest first, through both the engine's (approximate) index and an
// exhaustive scan of the same embeddings, and reports recall@k in [0,1] —
// the measured answer to "is ANNS/CTS still finding what ExS would".
// Engines that have not served traffic yet, or run without tracing, probe
// with a stride sample of stored value texts instead. The result is
// exported as the semdisco_recall_at_k gauge. Cost is
// ~2·recallProbeQueries searches, one of them exhaustive; probe at
// diagnostic cadence. Must not race with Add.
//
// Probe queries bypass Do, so probing never counts as traffic in the SLO
// engine or offers a trace to the store it samples from.
func (e *Engine) RecallProbe(k int) (RecallResult, error) {
	if k <= 0 {
		k = 10
	}
	source := "traces"
	var queries []string
	seen := make(map[string]bool)
	for _, st := range e.traces.List(0) {
		if len(queries) == recallProbeQueries {
			break
		}
		if st.Query != "" && !seen[st.Query] {
			seen[st.Query] = true
			queries = append(queries, st.Query)
		}
	}
	baseSearcher, baseEmb := e.store.Base()
	if len(queries) == 0 {
		queries = baseEmb.SampleValueTexts(recallProbeQueries)
		source = "value_sample"
	}
	// The probe pits the base segment's (approximate) index against an
	// exhaustive scan of the same embeddings — the structure whose recall
	// can silently rot. Younger segments are exhaustively scanned anyway,
	// so they have nothing to probe.
	res, err := core.ProbeRecall(baseSearcher, baseEmb, queries, k, e.cfg.Threshold)
	if err != nil {
		return res, err
	}
	res.Source = source
	e.reg.Gauge(obs.L(core.MetricRecallAtK,
		"method", res.Method, "k", strconv.Itoa(k))).Set(res.Recall)
	return res, nil
}
