package semdisco

import (
	"context"
	"errors"

	"semdisco/internal/cluster"
	"semdisco/internal/obs"
)

// Request is one discovery query: rank the federation's relations for a
// keyword query and return at most K matches, best first.
type Request struct {
	Query string
	K     int
	// Sources restricts the search to relations belonging to any of the
	// named federation members — "find COVID tables, but only from WHO or
	// ECDC". Empty means no restriction. Only an Engine can filter; a
	// NetCoordinator answers ErrUnsupported.
	Sources []string
	// Feedback runs pseudo-relevance feedback (Rocchio): an initial search
	// retrieves a few top relations, their embedding centroids expand the
	// query, and the expanded query is searched. Useful for very short
	// queries that lack context on their own. Engine only.
	Feedback bool
}

// ClusterResult is a query answer: the ranked top-k plus the
// scatter-gather health metadata a NetCoordinator fills in (whether the
// answer is degraded and which replica sets failed).
type ClusterResult = cluster.Result

// Response is a query answer: the ranked matches with the trace ID, cost
// accounting and — on a NetCoordinator — the scatter-gather health
// metadata of ClusterResult. The per-stage breakdown is the span tree the
// trace store keeps under TraceID (Traces().Get).
type Response struct {
	ClusterResult
}

// Query is one item of a batched search: the query text and its result
// bound. Items with K ≤ 0 yield an empty answer without being scored.
type Query struct {
	Text string
	K    int
}

// ErrUnsupported is returned by Do for a Request field the backend cannot
// serve (Sources or Feedback on a NetCoordinator).
var ErrUnsupported = errors.New("semdisco: request not supported by this backend")

// Backend is the one query and mutation surface of the two deployment
// shapes — Engine (one index) and NetCoordinator (replica sets over the
// wire). Every method is safe for concurrent use: searches never block on
// writes.
type Backend interface {
	// Do answers one query. See Request.
	Do(ctx context.Context, req Request) (*Response, error)
	// DoBatch answers a block of queries in one fused pass: each distinct
	// query text is encoded once and the whole block is scored together
	// (one blocked scan on an Engine, one scatter-gather per replica set on
	// a NetCoordinator). Responses are positionally aligned with queries and
	// carry per-item cost; batching changes throughput, never answers.
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
	// MetricsRegistry, Traces and SLO expose the backend's
	// telemetry sinks. Each is nil when disabled, and a nil sink is a valid
	// no-op everywhere.
	MetricsRegistry() *obs.Registry
	Traces() *obs.TraceStore
	SLO() *obs.SLOEngine
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
