package httpapi

import (
	"fmt"
	"log/slog"
	"net/http"

	"semdisco"
)

// maxBatchQueries caps one /v1/search/batch request: large enough for the
// batch sizes that saturate the blocked kernels (the bench uses 64), small
// enough that one request cannot monopolize the server.
const maxBatchQueries = 256

// BatchQueryJSON is one item of a /v1/search/batch request.
type BatchQueryJSON struct {
	Query string `json:"query"`
	K     int    `json:"k"`
}

// BatchSearchRequest is the body of /v1/search/batch.
type BatchSearchRequest struct {
	Queries []BatchQueryJSON `json:"queries"`
}

// BatchItemJSON is one query's slice of a /v1/search/batch response,
// positionally aligned with the request's queries. The coordinator-mode
// fields (degraded, shard_errors) mirror /v1/search.
type BatchItemJSON struct {
	Matches []MatchJSON `json:"matches"`
	// Cost is this item's work accounting.
	Cost        *semdisco.CostReport `json:"cost,omitempty"`
	Degraded    bool                 `json:"degraded,omitempty"`
	ShardErrors []string             `json:"shard_errors,omitempty"`
}

// BatchSearchResponse is the body returned by /v1/search/batch.
type BatchSearchResponse struct {
	Results []BatchItemJSON `json:"results"`
}

// handleSearchBatch answers POST /v1/search/batch: a block of queries
// executed in one fused pass — one blocked scan scoring every query per
// corpus chunk in engine mode, one scatter-gather per replica set for the
// whole block in coordinator mode. Results are positionally aligned with
// the request.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	req, err := readBatchRequest(r.Body, maxBodyBytes)
	if err != nil {
		writeError(w, decodeError(err), fmt.Sprintf("bad body: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "queries is required")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), maxBatchQueries))
		return
	}
	queries := make([]semdisco.Query, len(req.Queries))
	for i, q := range req.Queries {
		if q.Query == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("queries[%d].query is required", i))
			return
		}
		queries[i] = semdisco.Query{Text: q.Query, K: clampK(q.K)}
	}
	s.annotate(r, "batch", slog.IntValue(len(queries)))

	results, err := s.backend.DoBatch(r.Context(), queries)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := BatchSearchResponse{Results: make([]BatchItemJSON, len(results))}
	for i, res := range results {
		item := BatchItemJSON{
			Matches:  matchesJSON(res.Matches),
			Cost:     &res.Cost,
			Degraded: res.Degraded,
		}
		for _, se := range res.ShardErrors {
			item.ShardErrors = append(item.ShardErrors, se.Error())
		}
		resp.Results[i] = item
	}
	writeBatchResponse(w, &resp)
}
