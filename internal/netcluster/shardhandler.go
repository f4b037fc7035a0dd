package netcluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// maxEncodedBatch caps one encoded-batch request, mirroring the public
// batch endpoint's limit. maxEncodedK caps the k of one encoded query: a
// coordinator asks for k, or k plus a small slack for an approximate
// method, with k at most the public API's 1000, so anything near this is
// not a coordinator, and the bytes come from outside the process.
const (
	maxEncodedBatch = 256
	maxEncodedK     = 1 << 16
)

// ShardBackend is what a shard server executes encoded searches against:
// one block of queries per request, the single-query route sending a block
// of one. *core.SegmentStore satisfies it (and so does every core method),
// which is the point: the shard side of the wire protocol is the same
// encoded search path an engine's own queries run.
type ShardBackend interface {
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

// ServeHTTP implements http.Handler for both internal paths: one frame
// reader, one backend call and one frame writer, the single-query route
// being a frame of exactly one query.
func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeWireError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use POST", r.Method))
		return
	}
	single := r.URL.Path == PathEncodedSearch
	if !single && r.URL.Path != PathEncodedSearchBatch {
		writeWireError(w, http.StatusNotFound, CodeNotFound, "no such internal route "+r.URL.Path)
		return
	}
	if ct := r.Header.Get("Content-Type"); ct != FrameContentType {
		// A 4xx: the coordinator speaks another protocol, so no replica of
		// this deployment would answer it either.
		writeWireError(w, http.StatusUnsupportedMediaType, CodeBadRequest,
			fmt.Sprintf("content type %q; the encoded-search routes take %s", ct, FrameContentType))
		return
	}
	maxN := maxEncodedBatch
	if single {
		maxN = 1
	}
	qs, ks, fe := readRequest(r.Body, r.ContentLength, h.dim, maxN)
	if fe != nil {
		writeWireError(w, fe.status, CodeBadRequest, fe.msg)
		return
	}

	tr := traceFor(r)
	root, o := "shard_encoded_batch", obs.TraceOutcome{Method: "encoded_batch", K: len(qs)}
	if single {
		root, o = "shard_encoded_search", obs.TraceOutcome{Method: "encoded", K: ks[0]}
	}
	sp := tr.StartRoot(root)
	costs := make([]*obs.Cost, len(qs))
	for i := range costs {
		costs[i] = &obs.Cost{}
	}
	rep := reply{costs: make([]obs.CostReport, len(qs))}
	var err error
	rep.ms, err = h.backend.SearchEncodedBatch(r.Context(), qs, ks, costs)
	for i, c := range costs {
		rep.costs[i] = c.Report()
	}
	if err == nil && len(rep.ms) != len(qs) {
		err = fmt.Errorf("backend answered %d of %d queries", len(rep.ms), len(qs))
	}
	if single {
		if err == nil {
			o.Matches = len(rep.ms[0])
		}
		sp.AnnotateInt("k", ks[0]).AnnotateInt("matches", o.Matches).AnnotateInt("distance_comps", int(rep.costs[0].DistanceComps))
	} else {
		sp.AnnotateInt("queries", len(qs))
	}
	if err != nil {
		sp.Annotate("error", err.Error())
	}
	o.Duration, o.Err = sp.End(), errString(err)
	h.traces.Offer(tr, o)
	if err != nil {
		status, code := http.StatusInternalServerError, CodeInternal
		if r.Context().Err() != nil {
			// The coordinator hung up (its deadline or attempt timeout);
			// 503 tells the client this was availability, not a bad query.
			status, code = http.StatusServiceUnavailable, CodeUnavailable
		}
		writeWireError(w, status, code, err.Error())
		return
	}
	rep.spans = tr.Spans()
	body := appendResponse(nil, rep)
	hdr := w.Header()
	if hdr.Get("X-Trace-Id") == "" {
		hdr.Set("X-Trace-Id", tr.ID().String())
	}
	hdr.Set("Content-Type", FrameContentType)
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
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

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeWireError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: msg, Code: code})
}
