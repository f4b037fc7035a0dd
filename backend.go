package semdisco

import (
	"context"
	"errors"
	"time"

	"semdisco/internal/obs"
)

// Request is one discovery query: rank the federation's relations for a
// keyword query and return at most K matches, best first.
type Request struct {
	Query string
	K     int
	// Sources restricts the search to relations belonging to any of the
	// named federation members — "find COVID tables, but only from WHO or
	// ECDC". Empty means no restriction. Only an Engine can filter; Cluster
	// and NetCoordinator answer ErrUnsupported.
	Sources []string
	// Feedback runs pseudo-relevance feedback (Rocchio): an initial search
	// retrieves a few top relations, their embedding centroids expand the
	// query, and the expanded query is searched. Useful for very short
	// queries that lack context on their own. Engine only.
	Feedback bool
	// Trace asks for the query's per-stage breakdown in Response.Stages.
	Trace bool
}

// Response is a query answer: the ranked matches with the trace ID, cost
// accounting and — on a Cluster or NetCoordinator — the scatter-gather
// health metadata of ClusterResult, plus the stage breakdown when the
// request asked for one.
type Response struct {
	ClusterResult
	// Stages is the flat per-stage breakdown (encode → index walk → rank on
	// an Engine; encode → scatter with one stage per shard attempt → merge
	// on a Cluster or NetCoordinator). Nil unless Request.Trace was set.
	Stages []TraceStage
}

// Query is one item of a batched search: the query text and its result
// bound. Items with K ≤ 0 yield an empty answer without being scored.
type Query struct {
	Text string
	K    int
}

// ErrUnsupported is returned by Do for a Request field the backend cannot
// serve (Sources or Feedback on a Cluster or NetCoordinator).
var ErrUnsupported = errors.New("semdisco: request not supported by this backend")

// Backend is the one query and mutation surface of the three deployment
// shapes — Engine (one index), Cluster (in-process shards) and
// NetCoordinator (replica sets over the wire). Every method is safe for
// concurrent use: searches never block on writes.
type Backend interface {
	// Do answers one query. See Request.
	Do(ctx context.Context, req Request) (*Response, error)
	// DoBatch answers a block of queries in one fused pass: each distinct
	// query text is encoded once and the whole block is scored together
	// (one blocked scan on an Engine, one scatter-gather per shard on a
	// Cluster or NetCoordinator). Responses are positionally aligned with
	// queries and carry per-item cost; batching changes throughput, never
	// answers.
	DoBatch(ctx context.Context, queries []Query) ([]*Response, error)
	// AddRelation indexes one more relation; its ID must not be live.
	AddRelation(ctx context.Context, r *Relation) error
	// UpdateRelation replaces a live relation's contents and moves it to
	// the end of the global insertion order, as if deleted and re-added.
	UpdateRelation(ctx context.Context, r *Relation) error
	// DeleteRelation tombstones a relation: it stops appearing in results
	// immediately and compaction reclaims its space.
	DeleteRelation(ctx context.Context, id string) error

	Method() Method
	NumRelations() int
	// MetricsRegistry, Traces, SLO and Workload expose the backend's
	// telemetry sinks. Each is nil when disabled, and a nil sink is a valid
	// no-op everywhere.
	MetricsRegistry() *obs.Registry
	Traces() *obs.TraceStore
	SLO() *obs.SLOEngine
	Workload() *obs.Workload
}

// telemetry is the per-query bookkeeping state every Backend embeds: the
// sinks a finished query is reported to and the one function (observe)
// that reports it. All sinks are nil-safe, so a disabled subsystem costs
// a nil check.
type telemetry struct {
	method Method
	// span names the root span; latency is the histogram series a retained
	// trace's exemplar attaches to.
	span, latency string
	reg           *obs.Registry   // nil when Config.DisableMetrics
	diag          *diagnostics    // Engine only; nil when Config.Diagnostics.Disable
	traces        *obs.TraceStore // nil when Config.Tracing.Disable
	workload      *obs.Workload   // heavy hitters, shard load skew, costliest queries
	slo           *obs.SLOEngine  // nil when Config.SLO.Disable
}

// Method reports the backend's search strategy.
func (t *telemetry) Method() Method { return t.method }

// MetricsRegistry exposes the backend's metrics registry for in-process
// surfaces such as internal/httpapi's /metrics endpoint. Nil under
// Config.DisableMetrics — and a nil *obs.Registry is a valid value
// everywhere in this codebase: every method on it is a no-op. Tracing and
// diagnostics do not depend on the registry and keep working without one.
func (t *telemetry) MetricsRegistry() *obs.Registry { return t.reg }

// Traces exposes the backend's tail-sampling trace store: retained span
// trees listable, fetchable by trace ID and exportable as JSON lines. Nil
// when tracing is disabled.
func (t *telemetry) Traces() *obs.TraceStore { return t.traces }

// Workload exposes the backend's workload analyzer: heavy-hitter queries,
// per-shard load skew and the costliest-queries board. Nil on a
// NetCoordinator, which does not run one.
func (t *telemetry) Workload() *obs.Workload { return t.workload }

// SLO exposes the backend's SLO burn-rate engine; nil when disabled.
func (t *telemetry) SLO() *obs.SLOEngine { return t.slo }

// observe is the per-query bookkeeping of every backend, written once: run
// executes the query under a root span — continuing a propagated trace
// when ctx carries one — with a cost accumulator in the context so the
// index layers account their work; the outcome then feeds the diagnostics
// layer (slow-query log, sampler, journal), the workload analyzer, the SLO
// engine (a degraded answer counts against availability) and the
// tail-based trace store, which links the latency histogram to a retained
// trace via an exemplar.
func (t *telemetry) observe(ctx context.Context, req Request, run func(context.Context, *obs.Trace) (*ClusterResult, error)) (*Response, error) {
	if obs.CostFrom(ctx) == nil {
		ctx = obs.ContextWithCost(ctx, &obs.Cost{})
	}
	tr := obs.NewTraceFrom(ctx)
	root := tr.StartRoot(t.span).AnnotateInt("k", req.K)
	resp := &Response{}
	res, err := run(ctx, tr)
	if res != nil {
		// A copy: a router shares its result with coalesced followers.
		resp.ClusterResult = *res
	}
	resp.TraceID = tr.ID().String()
	root.AnnotateInt("matches", len(resp.Matches)).
		AnnotateInt("distance_comps", int(resp.Cost.DistanceComps)).
		AnnotateInt("hnsw_hops", int(resp.Cost.HNSWHops)).
		AnnotateInt("pq_lookups", int(resp.Cost.PQLookups))
	dur := root.End()

	method := t.method.String()
	requestID := obs.RequestIDFrom(ctx)
	t.diag.observe(method, req.Query, req.K, resp.Matches, dur, tr, requestID, err)
	t.workload.Record(req.Query, method, resp.TraceID, resp.Cost, dur, time.Now())
	t.slo.Record(dur, err != nil || resp.Degraded)
	if t.traces != nil {
		o := obs.TraceOutcome{
			Duration:  dur,
			Query:     req.Query,
			Method:    method,
			K:         req.K,
			Matches:   len(resp.Matches),
			Degraded:  resp.Degraded,
			Hedged:    resp.Hedged,
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
		if kept, _ := t.traces.Offer(tr, o); kept {
			t.reg.Histogram(t.latency).SetExemplar(dur, resp.TraceID)
		}
	}
	if err != nil {
		return nil, err
	}
	if req.Trace {
		resp.Stages = toTraceStages(tr.Stages())
	}
	return resp, nil
}

// observeBatch feeds a finished batch to the workload analyzer and the SLO
// engine, each item with its amortized share of the batch latency — so
// heavy-hitter and cost rankings stay meaningful under batched traffic.
func (t *telemetry) observeBatch(queries []Query, results []*Response, dur time.Duration) {
	if len(queries) == 0 {
		return
	}
	perItem := dur / time.Duration(len(queries))
	method := t.method.String()
	now := time.Now()
	for i, r := range results {
		if r == nil || queries[i].K <= 0 {
			continue
		}
		t.workload.Record(queries[i].Text, method, r.TraceID, r.Cost, perItem, now)
		t.slo.Record(perItem, r.Degraded)
	}
}

// resultOf and matchesOf unwrap a Do answer for the legacy wrappers that
// return a bare result or bare matches.
func resultOf(resp *Response, err error) (*ClusterResult, error) {
	if err != nil {
		return nil, err
	}
	return &resp.ClusterResult, nil
}

func matchesOf(resp *Response, err error) ([]Match, error) {
	res, err := resultOf(resp, err)
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}
