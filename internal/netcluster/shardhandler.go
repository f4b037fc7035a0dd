package netcluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// maxEncodedBatch caps one encoded-batch request, mirroring the public
// batch endpoint's limit. maxEncodedK caps the k of one encoded query: a
// coordinator asks for k+Slack with k at most the public API's 1000, so
// anything near this is not a coordinator, and the bytes come from outside
// the process.
const (
	maxEncodedBatch = 256
	maxEncodedK     = 1 << 16
)

// ShardBackend is what a shard server executes encoded searches against.
// *core.SegmentStore satisfies it (and so does every core method), which
// is the point: the shard side of the wire protocol is the same encoded
// search path the in-process Router calls directly.
type ShardBackend interface {
	SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error)
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error)
}

// ShardHandler serves the internal encoded-search endpoints over a
// backend. Mount it on a shard server's mux next to the public API:
//
//	mux.Handle("POST "+netcluster.PathEncodedSearch, h)
//	mux.Handle("POST "+netcluster.PathEncodedSearchBatch, h)
//
// Each request runs under the propagated W3C trace context (the
// coordinator sends a traceparent header), records a shard-side span tree,
// returns it in the response for the coordinator to graft into its own
// trace, and — when a trace store is attached — offers it locally too, so
// a shard's /v1/debug/traces shows its slice of every federated query
// under the same trace ID the coordinator logged.
type ShardHandler struct {
	backend ShardBackend
	traces  *obs.TraceStore // nil: no local retention
	// dim guards against a coordinator built with a different embedding
	// configuration; 0 disables the check.
	dim int
}

// NewShardHandler builds a handler over a backend. traces may be nil;
// dim > 0 rejects vectors of any other length with a bad_request error.
func NewShardHandler(backend ShardBackend, traces *obs.TraceStore, dim int) *ShardHandler {
	return &ShardHandler{backend: backend, traces: traces, dim: dim}
}

// ServeHTTP implements http.Handler for both internal paths.
func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeWireError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use POST", r.Method))
		return
	}
	switch r.URL.Path {
	case PathEncodedSearch:
		h.serveSearch(w, r)
	case PathEncodedSearchBatch:
		h.serveBatch(w, r)
	default:
		writeWireError(w, http.StatusNotFound, CodeNotFound, "no such internal route "+r.URL.Path)
	}
}

// traceFor continues the propagated trace context when the request (or
// its context, when mounted behind httpapi's middleware) carries one, and
// mints a fresh trace otherwise.
func traceFor(r *http.Request) *obs.Trace {
	if sc, ok := obs.SpanContextFrom(r.Context()); ok && sc.Valid() {
		return obs.NewTraceWith(sc.TraceID, sc.SpanID, sc.Flags)
	}
	if sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return obs.NewTraceWith(sc.TraceID, sc.SpanID, sc.Flags)
	}
	return obs.NewTrace()
}

func (h *ShardHandler) serveSearch(w http.ResponseWriter, r *http.Request) {
	var req EncodedSearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.Vector) == 0 {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, "vector is required")
		return
	}
	if h.dim > 0 && len(req.Vector) != h.dim {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("vector has %d dimensions; this shard indexes %d", len(req.Vector), h.dim))
		return
	}
	if req.K <= 0 || req.K > maxEncodedK {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("k must be between 1 and %d", maxEncodedK))
		return
	}

	tr := traceFor(r)
	sp := tr.StartRoot("shard_encoded_search").AnnotateInt("k", req.K)
	cost := &obs.Cost{}
	ctx := obs.ContextWithCost(r.Context(), cost)
	ms, err := h.backend.SearchEncoded(ctx, req.Vector, req.K)
	rep := cost.Report()
	sp.AnnotateInt("matches", len(ms)).AnnotateInt("distance_comps", int(rep.DistanceComps))
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	dur := sp.End()
	h.offer(tr, obs.TraceOutcome{Duration: dur, Method: "encoded", K: req.K, Matches: len(ms), Err: errString(err)})
	if err != nil {
		status, code := http.StatusInternalServerError, CodeInternal
		if r.Context().Err() != nil {
			// The coordinator hung up (deadline or hedge winner elsewhere);
			// 503 tells the client this was availability, not a bad query.
			status, code = http.StatusServiceUnavailable, CodeUnavailable
		}
		writeWireError(w, status, code, err.Error())
		return
	}
	writeWireJSON(w, r, tr, EncodedSearchResponse{Matches: toWire(ms), Cost: rep, Spans: tr.Spans()})
}

func (h *ShardHandler) serveBatch(w http.ResponseWriter, r *http.Request) {
	var req EncodedBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.Vectors) == 0 {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest, "vectors is required")
		return
	}
	if len(req.Vectors) > maxEncodedBatch {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("batch of %d exceeds the %d-vector limit", len(req.Vectors), maxEncodedBatch))
		return
	}
	if len(req.Ks) != len(req.Vectors) {
		writeWireError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("%d vectors but %d ks", len(req.Vectors), len(req.Ks)))
		return
	}
	for i, v := range req.Vectors {
		if h.dim > 0 && len(v) != h.dim {
			writeWireError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("vectors[%d] has %d dimensions; this shard indexes %d", i, len(v), h.dim))
			return
		}
		if req.Ks[i] <= 0 || req.Ks[i] > maxEncodedK {
			writeWireError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("ks[%d] must be between 1 and %d", i, maxEncodedK))
			return
		}
	}

	tr := traceFor(r)
	sp := tr.StartRoot("shard_encoded_batch").AnnotateInt("queries", len(req.Vectors))
	costs := make([]*obs.Cost, len(req.Vectors))
	for i := range costs {
		costs[i] = &obs.Cost{}
	}
	ms, err := h.backend.SearchEncodedBatch(r.Context(), req.Vectors, req.Ks, costs)
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	dur := sp.End()
	h.offer(tr, obs.TraceOutcome{Duration: dur, Method: "encoded_batch", K: len(req.Vectors), Err: errString(err)})
	if err != nil {
		status, code := http.StatusInternalServerError, CodeInternal
		if r.Context().Err() != nil {
			status, code = http.StatusServiceUnavailable, CodeUnavailable
		}
		writeWireError(w, status, code, err.Error())
		return
	}
	resp := EncodedBatchResponse{
		Results: make([][]WireMatch, len(ms)),
		Costs:   make([]obs.CostReport, len(costs)),
		Spans:   tr.Spans(),
	}
	for i := range ms {
		resp.Results[i] = toWire(ms[i])
	}
	for i, c := range costs {
		resp.Costs[i] = c.Report()
	}
	writeWireJSON(w, r, tr, resp)
}

// offer retains interesting shard-side traces locally when a store is
// attached.
func (h *ShardHandler) offer(tr *obs.Trace, o obs.TraceOutcome) {
	if h.traces == nil {
		return
	}
	h.traces.Offer(tr, o)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeWireJSON(w http.ResponseWriter, r *http.Request, tr *obs.Trace, v interface{}) {
	if w.Header().Get("X-Trace-Id") == "" {
		w.Header().Set("X-Trace-Id", tr.ID().String())
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}

func writeWireError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: msg, Code: code})
}
