package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"semdisco"
)

// Bounds on the debug endpoints: they exist for humans with curl, and must
// not become a way to make the server do unbounded work.
const (
	defaultProbeK = 10 // /v1/debug/recall default ?k
	maxProbeK     = 50 // /v1/debug/recall cap on ?k
)

// queryInt parses an optional integer query parameter. Returns (def, true)
// when absent, (0, false) on garbage.
func queryInt(r *http.Request, name string, def int) (int, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, false
	}
	return v, true
}

// limitParam is the one clamping convention every list-style debug
// endpoint shares: an absent or explicit-zero ?name= selects def, a
// negative or non-numeric value rejects (the caller answers 400), and
// values above max clamp to max. A def of 0 means "no limit" (the
// JSON-lines export's natural default — the store is already bounded).
func limitParam(r *http.Request, name string, def, max int) (int, bool) {
	n, ok := queryInt(r, name, def)
	if !ok || n < 0 {
		return 0, false
	}
	if n == 0 {
		n = def
	}
	if n > max {
		n = max
	}
	return n, true
}

// IndexDebugResponse is the body of /v1/debug/index: the engine's index
// health plus the segment store's shape (segment counts, tombstoned
// volume, seal and compaction counters).
type IndexDebugResponse struct {
	semdisco.IndexHealth
	Segments semdisco.SegmentStats `json:"segments"`
}

// handleDebugIndex serves the engine's index-health introspection: HNSW
// graph shape and reachability, PQ distortion, CTS cluster balance, and
// the segment store's compaction state.
func (s *Server) handleDebugIndex(w http.ResponseWriter, _ *http.Request) {
	eng, ok := s.requireEngine(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, IndexDebugResponse{
		IndexHealth: eng.IndexHealth(),
		Segments:    eng.SegmentStats(),
	})
}

// handleDebugRecall runs one online recall probe at ?k (default 10,
// clamped to [1,50]). Probes are expensive — one exhaustive scan per
// replayed query — so at most one runs at a time; concurrent requests get
// a 429 with Retry-After rather than queueing up probe work.
func (s *Server) handleDebugRecall(w http.ResponseWriter, r *http.Request) {
	eng, ok := s.requireEngine(w)
	if !ok {
		return
	}
	k, ok := limitParam(r, "k", defaultProbeK, maxProbeK)
	if !ok {
		writeError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	if !s.probeMu.TryLock() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "a recall probe is already running")
		return
	}
	defer s.probeMu.Unlock()
	res, err := eng.RecallProbe(k)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// StartRecallProbe launches a goroutine probing recall@k every interval
// until done is closed (used by semdisco-serve's -recall-probe-interval);
// a no-op unless the server fronts an engine. Each probe takes the probe
// mutex, so probes never pile up behind a slow manual probe.
func (s *Server) StartRecallProbe(done <-chan struct{}, interval time.Duration, k int) {
	eng, ok := s.backend.(*semdisco.Engine)
	if interval <= 0 || !ok {
		return
	}
	if k <= 0 {
		k = defaultProbeK
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if !s.probeMu.TryLock() {
					continue
				}
				res, err := eng.RecallProbe(k)
				s.probeMu.Unlock()
				if s.log != nil {
					if err != nil {
						s.log.Error("recall probe", "err", err)
					} else {
						s.log.Info("recall probe",
							"method", res.Method, "k", res.K,
							"recall", fmt.Sprintf("%.3f", res.Recall),
							"probed", res.Probed, "source", res.Source)
					}
				}
			}
		}
	}()
}

// handleDebugSLO serves the SLO engine's snapshot: per-objective
// (availability, latency) multi-window burn rates and the derived alert
// state (ok, slow_burn, fast_burn).
func (s *Server) handleDebugSLO(w http.ResponseWriter, _ *http.Request) {
	e := s.backend.SLO()
	if e == nil {
		writeError(w, http.StatusNotFound, "the SLO engine is disabled on this server")
		return
	}
	writeJSON(w, http.StatusOK, e.Snapshot())
}
