// Package httpapi exposes a semdisco.Backend — an Engine or a
// networked-cluster NetCoordinator — over HTTP with a small JSON API, so a
// federation member can host its (embedding-only, non-reversible) index as
// a service — the deployment shape the paper's federation setting implies.
// Every route has one handler over the Backend; the routes only a single
// engine can serve (/v1/datasets, "sources" on /v1/search,
// /v1/debug/{index,recall}) answer 501 in coordinator mode. The
// retained-query views — /v1/debug/{traces,slow,costly,journal} — all read
// the backend's one trace store, so they answer in both modes.
//
// Endpoints:
//
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition of engine + HTTP metrics
//	GET  /v1/stats              engine statistics (counters, latency quantiles, build phases)
//	POST /v1/search             {"query": "...", "k": 10, "sources": ["WHO"]}
//	POST /v1/search/batch       {"queries": [{"query": "...", "k": 10}, ...]} — fused batched execution
//	POST /v1/datasets           {"query": "...", "k": 5}
//	POST /v1/relations          a Relation to index incrementally
//	DELETE /v1/relations/{id}   tombstone a relation (404 when unknown)
//	PUT  /v1/relations/{id}     replace a relation's contents in place
//	GET  /v1/debug/slow         retained traces, slowest first (?n=20, max 100)
//	GET  /v1/debug/costly       retained traces, costliest first (?n=20, max 100)
//	GET  /v1/debug/index        index health: HNSW graphs, PQ distortion, cluster balance
//	GET  /v1/debug/recall       online recall probe vs exhaustive scan (?k=10, max 50)
//	GET  /v1/debug/journal      retained traces as JSON lines, oldest first (?n keeps the newest n)
//	GET  /v1/debug/traces       retained traces, newest first (?n=20, max 100)
//	GET  /v1/debug/traces/{id}  one retained trace rendered as a span tree
//	GET  /v1/debug/slo          SLO burn rates per objective and window, with alert states
//	GET  /debug/pprof/          runtime profiles (only with WithPprof)
//
// Engine-mode servers additionally mount the internal search stream
// (GET /internal/v1/search/stream with Upgrade: semdisco-frame): a
// networked-cluster coordinator that already embedded a query sends the
// raw vector as a frame on a pooled, upgraded connection, so shards never
// re-encode. Coordinator-mode servers (NewCoordinator) answer the public
// API by wire-level scatter-gather over replica sets.
//
// Every request runs under a W3C trace context: an inbound traceparent
// header is continued, otherwise a trace ID is minted; the ID is stamped
// on the X-Trace-Id and Traceparent response headers and correlates the
// access log with the stored span trees. An inbound
// X-Request-Id (defaulting to the trace ID) rides along the same way.
//
// Every non-2xx response carries an ErrorResponse JSON body, including
// wrong-method (405), unknown-route (404) and oversized-body (413, bodies
// are capped at 16 MiB) requests. When a logger is
// attached (WithLogger), each request is logged with method, path, status,
// duration, trace and request IDs and — for search requests — query
// length and k.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semdisco"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
)

// Server serves one semdisco.Backend over HTTP. It holds no lock of its
// own around the backend: Engine and NetCoordinator are both safe for
// concurrent searches and writes, so a slow write (a compaction-heavy
// add, a replica fan-out) never stalls a read.
type Server struct {
	probeMu sync.Mutex // at most one recall probe at a time
	backend semdisco.Backend
	// mode names the backend's deployment shape ("engine" or
	// "coordinator") in the 501 bodies of the surfaces it cannot serve.
	mode  string
	mux   *http.ServeMux
	log   *slog.Logger  // nil: request logging off
	reg   *obs.Registry // backend registry; nil when metrics are disabled
	start time.Time
	// streams serves the internal search stream; nil in coordinator mode.
	streams *netcluster.ShardHandler
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables structured request logging through l.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/, so a live server
// can be CPU- and heap-profiled with `go tool pprof`.
func WithPprof() Option {
	return func(s *Server) {
		s.handle("GET /debug/pprof/", http.HandlerFunc(pprof.Index))
		s.handle("GET /debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		s.handle("GET /debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		s.handle("GET /debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		s.handle("GET /debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
}

// New builds a Server around an engine. Alongside the public API the
// server mounts the internal search stream (see
// semdisco/internal/netcluster): a coordinator that has already embedded a
// query sends the raw vector there, so the shard never re-encodes. It is
// what makes an ordinary engine server usable as one shard of a networked
// cluster; CloseStreams ends its streams. Only an engine serves
// /v1/datasets, source filters and the index/recall debug endpoints;
// coordinator mode answers 501.
func New(eng *semdisco.Engine, opts ...Option) *Server {
	s := newServer(eng, "engine", opts)
	s.streams = netcluster.NewShardHandler(eng.EncodedBackend(), eng.Traces(), s.reg, eng.Dim())
	s.handle(netcluster.PathSearchStream, s.streams)
	return s
}

// CloseStreams ends the internal search streams the server has upgraded
// and refuses new ones; a stream running a search ends once it has
// answered. http.Server.Shutdown and Close leave upgraded connections
// open, so a shard server registers this with
// http.Server.RegisterOnShutdown. A no-op in coordinator mode.
func (s *Server) CloseStreams() {
	if s.streams != nil {
		s.streams.Close()
	}
}

// NewCoordinator builds a Server fronting a networked-cluster coordinator:
// /v1/search and /v1/search/batch answer by wire-level scatter-gather over
// the replica sets (with degradation metadata in the response), /v1/relations writes route to the ring-owning set's replicas,
// /v1/stats reports router plus per-replica-set failover health, and the
// trace endpoints serve the coordinator's store — federated span trees with
// every winning replica's remote spans grafted in.
func NewCoordinator(nc *semdisco.NetCoordinator, opts ...Option) *Server {
	return newServer(nc, "coordinator", opts)
}

func newServer(b semdisco.Backend, mode string, opts []Option) *Server {
	s := &Server{backend: b, mode: mode, reg: b.MetricsRegistry()}
	s.init(opts)
	return s
}

// requireEngine returns the backend as an Engine for the surfaces only a
// single index has (datasets, sources, index health, recall probes). In
// coordinator mode it answers 501 rather than pretending a monolithic
// engine exists behind the router.
func (s *Server) requireEngine(w http.ResponseWriter) (*semdisco.Engine, bool) {
	eng, ok := s.backend.(*semdisco.Engine)
	if !ok {
		writeError(w, http.StatusNotImplemented, "endpoint not available in "+s.mode+" mode")
	}
	return eng, ok
}

// handle registers h under pattern. The mux's one match reaches h through
// the route, which hands ServeHTTP the pattern's metrics; no second match
// after serving looks the pattern up.
func (s *Server) handle(pattern string, h http.Handler) {
	m := &routeMetrics{
		pattern: pattern,
		seconds: s.reg.HistogramRef(obs.L("semdisco_http_request_seconds", "path", pattern)),
	}
	m.codes.Store(new([]statusCounter))
	s.mux.Handle(pattern, routed{h: h, m: m})
}

// routed is a registered handler with its pattern's metrics.
type routed struct {
	h http.Handler
	m *routeMetrics
}

func (rt routed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sw, ok := w.(*statusWriter); ok {
		sw.route = rt.m
	}
	rt.h.ServeHTTP(w, r)
}

func (s *Server) init(opts []Option) {
	s.mux = http.NewServeMux()
	s.start = time.Now()
	route := func(method, path string, h http.HandlerFunc) {
		s.handle(method+" "+path, h)
		// The method-less fallback catches wrong-method requests, which
		// would otherwise get the mux's plain-text 405.
		s.handle(path, s.methodNotAllowed(method))
	}
	route("GET", "/healthz", s.handleHealth)
	route("GET", "/metrics", s.handleMetrics)
	route("GET", "/v1/stats", s.handleStats)
	route("POST", "/v1/search", s.handleSearch)
	route("POST", "/v1/search/batch", s.handleSearchBatch)
	route("POST", "/v1/datasets", s.handleDatasets)
	route("POST", "/v1/relations", s.handleAddRelation)
	s.handle("DELETE /v1/relations/{id}", http.HandlerFunc(s.handleDeleteRelation))
	s.handle("PUT /v1/relations/{id}", http.HandlerFunc(s.handleUpdateRelation))
	s.handle("/v1/relations/{id}", s.methodNotAllowed("DELETE, PUT"))
	route("GET", "/v1/debug/slow", s.handleDebugSlow)
	route("GET", "/v1/debug/costly", s.handleDebugCostly)
	route("GET", "/v1/debug/index", s.handleDebugIndex)
	route("GET", "/v1/debug/recall", s.handleDebugRecall)
	route("GET", "/v1/debug/journal", s.handleTracesJSONL)
	route("GET", "/v1/debug/traces", s.handleDebugTraces)
	route("GET", "/v1/debug/traces/{id}", s.handleDebugTrace)
	route("GET", "/v1/debug/slo", s.handleDebugSLO)
	s.handle("/", http.HandlerFunc(s.handleNotFound))
	for _, opt := range opts {
		opt(s)
	}
}

// logAttrs is the per-request annotation bag handlers append to (query
// length, k) so the access log line carries request-specific detail. A
// request carries one only when a logger is attached.
type logAttrs struct {
	mu    sync.Mutex
	attrs []slog.Attr
}

type logAttrsKey struct{}

// annotate attaches key=v to the request's access log line. Without a
// logger it returns before looking for the bag or building an attribute.
func (s *Server) annotate(r *http.Request, key string, v slog.Value) {
	if s.log == nil {
		return
	}
	bag, ok := r.Context().Value(logAttrsKey{}).(*logAttrs)
	if !ok {
		return
	}
	bag.mu.Lock()
	bag.attrs = append(bag.attrs, slog.Attr{Key: key, Value: v})
	bag.mu.Unlock()
}

// statusWriter captures the response status for logging and metrics, and
// the route the mux dispatched to (nil for a redirect or no match).
type statusWriter struct {
	http.ResponseWriter
	status int
	route  *routeMetrics
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the connection beneath,
// which the search stream's upgrade hijacks.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP implements http.Handler: trace propagation + metrics + logging
// middleware around the mux. Every request runs under a W3C trace context —
// the inbound traceparent header's when one parses, a freshly minted one
// otherwise — and under a correlation ID (inbound X-Request-Id, defaulting
// to the trace ID). Both are stamped on the response headers (X-Trace-Id,
// Traceparent, X-Request-Id), threaded through the request context into
// the backend's trace store, and attached to the access log line, so one
// grep joins the log and the stored span tree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	ctx := r.Context()
	var bag *logAttrs
	if s.log != nil {
		bag = &logAttrs{}
		ctx = context.WithValue(ctx, logAttrsKey{}, bag)
	}

	sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		// No (or malformed) inbound context: this request starts the trace,
		// with the server itself as the root span's remote parent.
		sc = obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	}
	// The one hex rendering of the trace ID: the headers, the default
	// request ID and the access log share it, and a backend answering
	// under that request ID reuses it for the response's trace_id.
	traceID := sc.TraceID.String()
	requestID := r.Header.Get("X-Request-Id")
	if requestID == "" {
		requestID = traceID
	}
	ctx = obs.ContextWithSpan(ctx, sc)
	ctx = obs.ContextWithRequestID(ctx, requestID)
	r = r.WithContext(ctx)

	// The three headers' values share one backing array; each is capped at
	// its own element, so an Add to one header copies instead of writing
	// into the next.
	vals := []string{traceID, sc.Traceparent(), requestID}
	hdr := sw.Header()
	hdr["X-Trace-Id"] = vals[0:1:1]
	hdr["Traceparent"] = vals[1:2:2]
	hdr["X-Request-Id"] = vals[2:3:3]

	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start)
	s.recordRequest(r, sw, elapsed)

	if s.log != nil {
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.String("trace_id", traceID),
			slog.String("request_id", requestID),
		}
		bag.mu.Lock()
		attrs = append(attrs, bag.attrs...)
		bag.mu.Unlock()
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	}
}

// routeMetrics is one route pattern's HTTP series: its latency histogram
// and a requests counter per status it has answered, each resolved once.
type routeMetrics struct {
	pattern string
	seconds *obs.HistogramRef
	mu      sync.Mutex // serializes adding a status
	codes   atomic.Pointer[[]statusCounter]
}

type statusCounter struct {
	status int
	c      *obs.Counter
}

// requests returns the route's counter for status on reg, creating the
// series the first time the route answers with it.
func (m *routeMetrics) requests(reg *obs.Registry, status int) *obs.Counter {
	if c := m.counter(status); c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.counter(status); c != nil {
		return c
	}
	c := reg.Counter(obs.L("semdisco_http_requests_total", "path", m.pattern, "code", strconv.Itoa(status)))
	codes := append(slices.Clip(*m.codes.Load()), statusCounter{status, c})
	m.codes.Store(&codes)
	return c
}

// counter returns the route's counter for status, nil before its first
// use.
func (m *routeMetrics) counter(status int) *obs.Counter {
	for _, sc := range *m.codes.Load() {
		if sc.status == status {
			return sc.c
		}
	}
	return nil
}

// recordRequest counts the request and observes its latency under the
// route pattern the mux matched — "unmatched" when none did.
func (s *Server) recordRequest(r *http.Request, sw *statusWriter, elapsed time.Duration) {
	if s.reg == nil {
		return
	}
	status := sw.status
	if m := sw.route; m != nil {
		m.requests(s.reg, status).Inc()
		// A 101's elapsed time is its search stream's lifetime, not a
		// request's latency; the stream's frames are timed by netcluster.
		if status != http.StatusSwitchingProtocols {
			m.seconds.Get().Observe(elapsed)
		}
		return
	}
	// No registered handler ran: the mux redirected, or refused the
	// request itself. Ask it which pattern it matched.
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	s.reg.Counter(obs.L("semdisco_http_requests_total",
		"path", pattern, "code", strconv.Itoa(status))).Inc()
	s.reg.Histogram(obs.L("semdisco_http_request_seconds", "path", pattern)).Observe(elapsed)
}

// SearchRequest is the body of /v1/search and /v1/datasets.
type SearchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	// Sources optionally restricts the search to federation members.
	Sources []string `json:"sources,omitempty"`
}

// SearchResponse is the body returned by /v1/search. The coordinator-mode
// fields report federated-query health: a degraded answer covers only the
// healthy replica sets' partitions.
type SearchResponse struct {
	Matches []MatchJSON `json:"matches"`
	// TraceID is the hex trace ID the query ran under (also on the
	// X-Trace-Id response header). When the outcome was interesting — slow,
	// degraded, errored, or head-sampled — the full span tree is
	// retrievable at /v1/debug/traces/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// Degraded is set in coordinator mode when one or more replica sets
	// failed or timed out; ShardErrors names them.
	Degraded    bool     `json:"degraded,omitempty"`
	ShardErrors []string `json:"shard_errors,omitempty"`
	// Cost is the query's work accounting: distance computations, graph
	// hops, PQ table lookups, values/bytes scanned, candidate counts. In
	// coordinator mode it is the sum across every replica set.
	Cost *semdisco.CostReport `json:"cost,omitempty"`
}

// MatchJSON is one relation match.
type MatchJSON struct {
	RelationID string  `json:"relation_id"`
	Score      float32 `json:"score"`
}

// DatasetJSON is one dataset match.
type DatasetJSON struct {
	Source    string      `json:"source"`
	Score     float32     `json:"score"`
	Relations []MatchJSON `json:"relations"`
}

// DatasetsResponse is the body returned by /v1/datasets.
type DatasetsResponse struct {
	Datasets []DatasetJSON `json:"datasets"`
}

// StatsResponse is the body returned by /v1/stats: the engine's full
// observability snapshot plus server uptime.
type StatsResponse struct {
	semdisco.EngineStats
	// Netcluster carries coordinator-mode health: the federated router view
	// plus each replica set's failover counters and ring share.
	Netcluster    *netcluster.CoordinatorStats `json:"netcluster,omitempty"`
	UptimeSeconds float64                      `json:"uptime_seconds"`
}

// ErrorResponse is the unified error shape every non-2xx response on this
// server carries: {"error": <human detail>, "code": <machine class>}. The
// code is derived from the status (bad_request, not_found,
// method_not_allowed, too_many_requests, not_implemented, internal,
// unavailable) and matches the internal wire protocol's error bodies, so a
// coordinator classifies local and remote failures identically.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// codeForStatus maps an HTTP status to the unified machine-readable error
// code (netcluster.Code*).
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return netcluster.CodeBadRequest
	case http.StatusNotFound:
		return netcluster.CodeNotFound
	case http.StatusMethodNotAllowed:
		return netcluster.CodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return netcluster.CodeTooManyRequests
	case http.StatusNotImplemented:
		return netcluster.CodeNotImplemented
	case http.StatusServiceUnavailable:
		return netcluster.CodeUnavailable
	default:
		if status >= 500 {
			return netcluster.CodeInternal
		}
		return netcluster.CodeBadRequest
	}
}

// writeError writes the unified error body for a non-2xx status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: codeForStatus(status)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the Prometheus text exposition. Scrapers accepting
// OpenMetrics get that format instead, with histogram bucket exemplars
// linking latency spikes to stored trace IDs — exemplar syntax is not
// valid in the plain 0.0.4 format, so it only appears when negotiated.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{UptimeSeconds: time.Since(s.start).Seconds()}
	resp.Method = s.backend.Method().String()
	resp.NumRelations = s.backend.NumRelations()
	// The one place the two deployment shapes differ by design: each
	// reports the health of what it is made of.
	switch b := s.backend.(type) {
	case *semdisco.Engine:
		resp.EngineStats = b.Stats()
	case *semdisco.NetCoordinator:
		ns := b.Stats()
		resp.Netcluster = &ns
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSearch answers /v1/search through the backend's one query entry
// point. The request context is threaded into the index walk (and, behind
// a router, into every replica attempt), so a client hanging up stops the
// work; in coordinator mode degradation metadata rides along in the
// response instead of failing the query.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSearch(w, r)
	if !ok {
		return
	}
	res, err := s.backend.Do(r.Context(), semdisco.Request{
		Query: req.Query, K: req.K, Sources: req.Sources})
	if errors.Is(err, semdisco.ErrUnsupported) {
		writeError(w, http.StatusNotImplemented, "source-filtered search not available in "+s.mode+" mode")
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := SearchResponse{
		Matches:  matchesJSON(res.Matches),
		TraceID:  res.TraceID,
		Degraded: res.Degraded,
		Cost:     &res.Cost,
	}
	for _, se := range res.ShardErrors {
		resp.ShardErrors = append(resp.ShardErrors, se.Error())
	}
	writeSearchResponse(w, &resp)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeSearch(w, r)
	if !ok {
		return
	}
	eng, ok := s.requireEngine(w)
	if !ok {
		return
	}
	datasets, err := eng.SearchDatasets(r.Context(), req.Query, req.K)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := DatasetsResponse{Datasets: make([]DatasetJSON, len(datasets))}
	for i, d := range datasets {
		resp.Datasets[i] = DatasetJSON{Source: d.Source, Score: d.Score, Relations: matchesJSON(d.Relations)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// RelationJSON is the body of the ingest endpoints — the same shape a
// coordinator forwards to its replicas.
type RelationJSON = netcluster.Relation

// decodeRelation reads and validates an ingest body, answering 400 (or
// 413) itself when it cannot. On PUT the path names the relation: the
// body's ID may be omitted (the path wins) but must match when present.
func (s *Server) decodeRelation(w http.ResponseWriter, r *http.Request, pathID string) (*semdisco.Relation, bool) {
	var body RelationJSON
	if !decodeJSON(w, r, &body) {
		return nil, false
	}
	if pathID != "" {
		if body.ID == "" {
			body.ID = pathID
		}
		if body.ID != pathID {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("body relation ID %q does not match path ID %q", body.ID, pathID))
			return nil, false
		}
	}
	s.annotate(r, "relation", slog.StringValue(body.ID))
	rel := &semdisco.Relation{
		ID:           body.ID,
		Source:       body.Source,
		PageTitle:    body.PageTitle,
		SectionTitle: body.SectionTitle,
		Caption:      body.Caption,
		Columns:      body.Columns,
		Rows:         body.Rows,
	}
	if err := rel.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return rel, true
}

func (s *Server) handleAddRelation(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.decodeRelation(w, r, "")
	if !ok {
		return
	}
	if err := s.backend.AddRelation(r.Context(), rel); err != nil {
		writeBackendError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "indexed", "id": rel.ID})
}

// handleUpdateRelation replaces a relation's contents in place (PUT
// /v1/relations/{id}): tombstone plus re-ingest under the same ID, moving
// the relation to the end of the global merge order.
func (s *Server) handleUpdateRelation(w http.ResponseWriter, r *http.Request) {
	rel, ok := s.decodeRelation(w, r, r.PathValue("id"))
	if !ok {
		return
	}
	if err := s.backend.UpdateRelation(r.Context(), rel); err != nil {
		writeBackendError(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "updated", "id": rel.ID})
}

// handleDeleteRelation tombstones one relation by ID. The slot's vectors
// stay in place until background compaction reclaims them, but the
// relation stops appearing in results immediately. Unknown IDs get 404.
func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.annotate(r, "relation", slog.StringValue(id))
	if err := s.backend.DeleteRelation(r.Context(), id); err != nil {
		writeBackendError(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
}

// writeBackendError maps a backend mutation error onto the unified error
// body. A *netcluster.WriteError (partial replica application) is an
// internal fault: the write is durable somewhere and the failed replicas
// need repair. A *netcluster.RemoteError passes the shard's own status
// through — a 404 from every replica of the owning set surfaces as this
// server's 404. Anything else gets the caller's fallback status.
func writeBackendError(w http.ResponseWriter, err error, fallback int) {
	var we *netcluster.WriteError
	if errors.As(err, &we) {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	var re *netcluster.RemoteError
	if errors.As(err, &re) && re.Status >= 400 {
		writeError(w, re.Status, err.Error())
		return
	}
	writeError(w, fallback, err.Error())
}

func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use %s", r.Method, allow))
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Sprintf("no such route %s", r.URL.Path))
}

// maxBodyBytes caps every request body: far above any batch of 256
// queries or any table worth indexing over HTTP, far below what would let
// one request exhaust the server's memory.
const maxBodyBytes = 16 << 20

// decodeJSON reads a size-capped JSON body into v, answering 413 for an
// oversized body and 400 for a malformed one.
func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	writeError(w, decodeError(err), fmt.Sprintf("bad body: %v", err))
	return false
}

// clampK applies the result-bound rule every search body shares: absent or
// non-positive selects 10, anything above 1000 is cut to 1000.
func clampK(k int) int {
	if k <= 0 {
		return 10
	}
	if k > 1000 {
		return 1000
	}
	return k
}

// decodeSearch reads a /v1/search or /v1/datasets body in one pass
// (decodeSearchRequest), answering 400 or 413 itself when it cannot.
func (s *Server) decodeSearch(w http.ResponseWriter, r *http.Request) (SearchRequest, bool) {
	req, err := readSearchRequest(r.Body, maxBodyBytes)
	if err != nil {
		writeError(w, decodeError(err), fmt.Sprintf("bad body: %v", err))
		return req, false
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "query is required")
		return req, false
	}
	req.K = clampK(req.K)
	s.annotate(r, "query_len", slog.IntValue(len(req.Query)))
	s.annotate(r, "k", slog.IntValue(req.K))
	return req, true
}

// matchesJSON converts matches to their wire form.
func matchesJSON(ms []semdisco.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{RelationID: m.RelationID, Score: m.Score}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
