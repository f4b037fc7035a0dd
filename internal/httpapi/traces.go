package httpapi

import (
	"net/http"
	"sort"

	"semdisco"
	"semdisco/internal/obs"
)

// Bounds on the trace debug endpoints: they exist for humans with curl,
// and must not become a way to make the server do unbounded work.
const (
	defaultTracesN = 20   // /v1/debug/{traces,slow,costly} default ?n
	maxTracesN     = 100  // /v1/debug/{traces,slow,costly} cap on ?n
	maxJSONLN      = 1000 // JSON-lines export cap on ?n; absent streams all
)

// TracesResponse is the body of /v1/debug/traces (retained traces, newest
// first), /v1/debug/slow (the same traces, slowest first) and
// /v1/debug/costly (costliest first): store volume counters and the listed
// traces.
type TracesResponse struct {
	// Offered counts every trace submitted to the store; Kept the ones
	// retained (tail criteria or head sample); Evicted the retained traces
	// later pushed out of the ring.
	Offered int64                  `json:"offered"`
	Kept    int64                  `json:"kept"`
	Evicted int64                  `json:"evicted"`
	Traces  []semdisco.StoredTrace `json:"traces"`
}

// SpanTreeJSON is one node of a rendered span tree: the stored span plus
// its children, ordered by start offset.
type SpanTreeJSON struct {
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartOffsetMS float64           `json:"start_offset_ms"`
	DurationMS    float64           `json:"duration_ms"`
	Annotations   map[string]string `json:"annotations,omitempty"`
	Children      []*SpanTreeJSON   `json:"children,omitempty"`
}

// TraceResponse is the body of /v1/debug/traces/{id}: the stored trace
// with its flat span list rendered as a tree.
type TraceResponse struct {
	semdisco.StoredTrace
	// Tree is the span forest: the root span(s) with children nested. A
	// span whose parent is not in the trace (e.g. the root of a propagated
	// trace, parented to the remote caller's span) appears as a top-level
	// node.
	Tree []*SpanTreeJSON `json:"tree"`
}

// SpanTree renders a stored trace's flat span list as a forest: children
// nested under parents, siblings ordered by start offset. Spans whose
// parent is absent from the trace — the root, or orphans whose parent
// never ended — surface as top-level nodes.
func SpanTree(spans []obs.StoredSpan) []*SpanTreeJSON {
	nodes := make(map[string]*SpanTreeJSON, len(spans))
	order := make([]*SpanTreeJSON, 0, len(spans))
	for _, sp := range spans {
		n := &SpanTreeJSON{
			SpanID:        sp.SpanID,
			ParentID:      sp.ParentID,
			Name:          sp.Name,
			StartOffsetMS: sp.StartOffsetMS,
			DurationMS:    sp.DurationMS,
			Annotations:   sp.Annotations,
		}
		nodes[sp.SpanID] = n
		order = append(order, n)
	}
	var roots []*SpanTreeJSON
	for _, n := range order {
		if p, ok := nodes[n.ParentID]; ok && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanTreeJSON) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartOffsetMS < ns[j].StartOffsetMS })
	}
	byStart(roots)
	for _, n := range order {
		byStart(n.Children)
	}
	return roots
}

// traceStore returns the backend's trace store, answering 404 itself when
// tracing is disabled.
func (s *Server) traceStore(w http.ResponseWriter) (*obs.TraceStore, bool) {
	store := s.backend.Traces()
	if store == nil {
		writeError(w, http.StatusNotFound, "tracing is disabled on this server")
	}
	return store, store != nil
}

// handleDebugTraces lists the retained traces, newest first: up to ?n
// (default 20, capped at 100).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	s.listTraces(w, r, (*obs.TraceStore).List)
}

// handleDebugSlow lists the retained traces slowest first, under the same
// ?n bounds as the newest-first list.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	s.listTraces(w, r, (*obs.TraceStore).Slowest)
}

// handleDebugCostly lists the retained traces costliest first (distance
// computations + HNSW hops + PQ lookups), under the same ?n bounds.
func (s *Server) handleDebugCostly(w http.ResponseWriter, r *http.Request) {
	s.listTraces(w, r, (*obs.TraceStore).Costliest)
}

// listTraces answers a TracesResponse with up to ?n traces in the order
// list returns them.
func (s *Server) listTraces(w http.ResponseWriter, r *http.Request, list func(*obs.TraceStore, int) []obs.StoredTrace) {
	store, ok := s.traceStore(w)
	if !ok {
		return
	}
	n, ok := limitParam(r, "n", defaultTracesN, maxTracesN)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{
		Offered: store.Offered(),
		Kept:    store.Kept(),
		Evicted: store.Evicted(),
		Traces:  list(store, n),
	})
}

// handleTracesJSONL streams the retained traces as JSON lines, oldest
// first, for offline analysis: /v1/debug/journal. ?n keeps the newest n
// (absent or 0 streams everything retained, capped at 1000).
func (s *Server) handleTracesJSONL(w http.ResponseWriter, r *http.Request) {
	store, ok := s.traceStore(w)
	if !ok {
		return
	}
	n, ok := limitParam(r, "n", 0, maxJSONLN)
	if !ok {
		writeError(w, http.StatusBadRequest, "n must be a non-negative integer")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = store.WriteJSONL(w, n)
}

// handleDebugTrace fetches one retained trace by hex trace ID and renders
// its span tree.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	store, ok := s.traceStore(w)
	if !ok {
		return
	}
	id := r.PathValue("id")
	st, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no retained trace "+id+"; only interesting or head-sampled traces are stored")
		return
	}
	writeJSON(w, http.StatusOK, TraceResponse{StoredTrace: st, Tree: SpanTree(st.Spans)})
}
