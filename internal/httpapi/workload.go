package httpapi

import "net/http"

// handleDebugWorkload serves the workload analyzer's snapshot: total
// queries, the heavy-hitter sketch (normalized query keys with counts and
// error bounds), per-shard load with the Gini skew coefficient, and the
// costliest queries ranked by distance computations.
func (s *Server) handleDebugWorkload(w http.ResponseWriter, _ *http.Request) {
	wl := s.backend.Workload()
	if wl == nil {
		writeError(w, http.StatusNotFound, "workload analytics are disabled on this server")
		return
	}
	writeJSON(w, http.StatusOK, wl.Snapshot())
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
