package netcluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// maxEncodedBatch caps the queries of one request frame, mirroring the
// public batch endpoint's limit. maxEncodedK caps the k of one encoded
// query: a coordinator asks for k, or k plus a small slack for an
// approximate method, with k at most the public API's 1000, so anything
// near this is not a coordinator, and the bytes come from outside the
// process.
const (
	maxEncodedBatch = 256
	maxEncodedK     = 1 << 16
)

// Metric series a shard records per encoded search it serves on a stream.
const (
	// MetricShardSearches counts answered request frames by status
	// (code="<status>").
	MetricShardSearches = "semdisco_netcluster_shard_searches_total"
	// MetricShardSearchSeconds is the time from a request frame read to its
	// answer written.
	MetricShardSearchSeconds = "semdisco_netcluster_shard_search_seconds"
)

// ShardBackend is what a shard server executes encoded searches against:
// one block of queries per request frame, a single query being a block of
// one. *core.SegmentStore satisfies it (and so does every core method),
// which is the point: the shard side of the wire protocol is the same
// encoded search path an engine's own queries run.
type ShardBackend interface {
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error)
}

// ShardHandler serves search streams over a backend. Mount it on a shard
// server's mux next to the public API:
//
//	mux.Handle(netcluster.PathSearchStream, h)
//
// and close it when the server shuts down (http.Server.RegisterOnShutdown):
// http.Server.Close and Shutdown leave hijacked connections open.
//
// Each request frame runs under the trace context its envelope carries,
// records a shard-side span tree, returns it in the answer for the
// coordinator to graft into its own trace, and — when a trace store is
// attached — offers it locally too, so a shard's /v1/debug/traces shows
// its slice of every federated query under the same trace ID the
// coordinator logged.
type ShardHandler struct {
	backend ShardBackend
	traces  *obs.TraceStore // nil: no local retention
	// dim guards against a coordinator built with a different embedding
	// configuration; 0 disables the check.
	dim int
	// The per-frame series; nil refs record nothing.
	reg     *obs.Registry
	okC     *obs.CounterRef
	seconds *obs.HistogramRef

	mu      sync.Mutex
	closed  bool
	streams map[*shardStream]struct{}
}

// shardStream is one upgraded connection. busy is set from a request
// frame read to its answer written, under the handler's mu.
type shardStream struct {
	conn net.Conn
	busy bool
}

// NewShardHandler builds a handler over a backend. traces and reg may be
// nil; dim > 0 rejects vectors of any other length with a bad_request
// error.
func NewShardHandler(backend ShardBackend, traces *obs.TraceStore, reg *obs.Registry, dim int) *ShardHandler {
	reg.SetHelps(map[string]string{
		MetricShardSearches:      "Request frames a shard answered on search streams, by status.",
		MetricShardSearchSeconds: "Time from a request frame read to its answer written.",
	})
	return &ShardHandler{
		backend: backend,
		traces:  traces,
		dim:     dim,
		reg:     reg,
		okC:     reg.CounterRef(obs.L(MetricShardSearches, "code", "200")),
		seconds: reg.HistogramRef(MetricShardSearchSeconds),
		streams: make(map[*shardStream]struct{}),
	}
}

// ServeHTTP upgrades a GET carrying "Upgrade: semdisco-frame" to a search
// stream and answers its request frames one after another until the
// coordinator closes it, the stream breaks or the handler is closed.
func (h *ShardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeWireError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; use GET with Upgrade: %s", r.Method, StreamProtocol))
		return
	}
	if !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
		// A 4xx: the coordinator speaks another protocol, so no replica of
		// this deployment would answer it either.
		w.Header().Set("Upgrade", StreamProtocol)
		w.Header().Set("Connection", "Upgrade")
		writeWireError(w, http.StatusUpgradeRequired, CodeBadRequest,
			fmt.Sprintf("%s serves upgrades to %s only", PathSearchStream, StreamProtocol))
		return
	}
	w.Header().Set("Upgrade", StreamProtocol)
	w.Header().Set("Connection", "Upgrade")
	w.WriteHeader(http.StatusSwitchingProtocols)
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return
	}
	_ = conn.SetDeadline(time.Time{}) // a stream idles between searches
	st := &shardStream{conn: conn}
	if !h.track(st) {
		conn.Close()
		return
	}
	defer h.untrack(st)
	h.serve(r.Context(), st, brw.Reader)
}

// serve answers st's request frames until the stream ends. A frame runs
// under ctx bounded by its budget; what a coordinator that gave up stops
// is the stream, not a search already running (DESIGN.md §9).
func (h *ShardHandler) serve(ctx context.Context, st *shardStream, br *bufio.Reader) {
	var out []byte
	for {
		req, fe, err := readEnvelope(br, h.dim, maxEncodedBatch)
		if err != nil || !h.setBusy(st, true) {
			return
		}
		start := time.Now()
		status := http.StatusOK
		if fe != nil {
			status = fe.status
			out = appendErrorAnswer(out[:0], fe.status, CodeBadRequest, fe.msg)
		} else {
			status, out = h.search(ctx, req, out[:0])
		}
		_, err = st.conn.Write(out)
		h.record(status, time.Since(start))
		if cap(out) > 1<<20 {
			out = nil // a rare huge answer does not stay with the stream
		}
		if !h.setBusy(st, false) || err != nil {
			return
		}
	}
}

// search runs one request frame on the backend and appends its answer
// envelope to out.
func (h *ShardHandler) search(ctx context.Context, req request, out []byte) (int, []byte) {
	if req.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, req.budget)
		defer cancel()
	}
	var tr *obs.Trace
	if req.sc.Valid() {
		tr = obs.NewTraceWith(req.sc.TraceID, req.sc.SpanID, req.sc.Flags)
	} else {
		tr = obs.NewTrace()
	}
	qs, ks := req.qs, req.ks
	single := len(qs) == 1
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
	if err = ctx.Err(); err == nil {
		rep.ms, err = h.backend.SearchEncodedBatch(ctx, qs, ks, costs)
	}
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
		if ctx.Err() != nil {
			// The budget ran out or the server is going away; 503 tells the
			// client this was availability, not a bad query.
			status, code = http.StatusServiceUnavailable, CodeUnavailable
		}
		return status, appendErrorAnswer(out, status, code, err.Error())
	}
	rep.spans = tr.Spans()
	at := len(out)
	out = appendResponse(appendAnswer(out, http.StatusOK, nil), rep)
	binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
	return http.StatusOK, out
}

// record counts and times one answered frame.
func (h *ShardHandler) record(status int, d time.Duration) {
	if h.reg == nil {
		return
	}
	if status == http.StatusOK {
		h.okC.Get().Inc()
	} else {
		h.reg.Counter(obs.L(MetricShardSearches, "code", strconv.Itoa(status))).Inc()
	}
	h.seconds.Get().Observe(d)
}

// track registers a new stream; false once the handler is closed.
func (h *ShardHandler) track(st *shardStream) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return false
	}
	h.streams[st] = struct{}{}
	return true
}

func (h *ShardHandler) untrack(st *shardStream) {
	h.mu.Lock()
	delete(h.streams, st)
	h.mu.Unlock()
	st.conn.Close()
}

// setBusy marks st busy or idle and reports whether it may go on: a
// closed handler lets a stream finish the search it is running, then
// ends it.
func (h *ShardHandler) setBusy(st *shardStream, busy bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st.busy = busy
	return !h.closed
}

// Close ends every stream the handler serves and refuses new ones: an
// idle stream is closed at once, a busy one once its answer is written.
// Coordinators holding them fail over to another replica, as they would
// if the shard's process had died. It returns nil.
func (h *ShardHandler) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for st := range h.streams {
		if !st.busy {
			st.conn.Close()
		}
	}
	return nil
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
