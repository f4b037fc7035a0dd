package semdisco

import (
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// TraceStage is one step of a traced search: its name, wall-clock duration
// and the key/value annotations the stage recorded (vectors scanned,
// clusters selected, …).
type TraceStage struct {
	Name        string            `json:"name"`
	DurationMS  float64           `json:"duration_ms"`
	Annotations map[string]string `json:"annotations,omitempty"`
}

// toTraceStages converts internal trace stages to the public form.
func toTraceStages(stages []obs.Stage) []TraceStage {
	out := make([]TraceStage, len(stages))
	for i, s := range stages {
		out[i] = TraceStage{
			Name:        s.Name,
			DurationMS:  float64(s.Duration) / float64(time.Millisecond),
			Annotations: s.Annotations,
		}
	}
	return out
}

// LatencySummary is the quantile snapshot of one latency histogram.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// EngineStats is a point-in-time snapshot of the engine's observability
// state: corpus shape, per-method query counters and latency quantiles,
// per-stage latency, encoder cache effectiveness and index-build phase
// durations.
type EngineStats struct {
	Method       string `json:"method"`
	NumRelations int    `json:"num_relations"`
	NumValues    int    `json:"num_values"`
	// NumClusters is 0 unless the method is CTS.
	NumClusters int `json:"num_clusters,omitempty"`
	// Segments describes the segment store: segment counts, tombstoned
	// volume, seal/compaction counters.
	Segments SegmentStats `json:"segments"`
	// Searches counts completed queries by method name.
	Searches map[string]int64 `json:"searches,omitempty"`
	// SearchLatency maps method name to end-to-end query latency.
	SearchLatency map[string]LatencySummary `json:"search_latency,omitempty"`
	// StageLatency maps "method/stage" to that stage's latency.
	StageLatency map[string]LatencySummary `json:"stage_latency,omitempty"`
	// Encoder token-cache effectiveness.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// BuildSeconds maps index-build phase ("embed", "umap", "hdbscan",
	// "pq_train", "hnsw_insert") to its wall-clock seconds.
	BuildSeconds map[string]float64 `json:"build_seconds,omitempty"`
}

// Stats snapshots the engine's metrics. With Config.DisableMetrics only
// the corpus-shape fields are populated.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Method:       e.Method().String(),
		NumRelations: e.store.NumLiveRelations(),
		NumValues:    e.store.NumLiveValues(),
		Segments:     e.store.Stats(),
	}
	if base, _ := e.store.Base(); base != nil {
		if cts, ok := base.(*core.CTS); ok {
			st.NumClusters = cts.NumClusters()
		}
	}
	if e.reg == nil {
		return st
	}
	snap := e.reg.Snapshot()
	for series, v := range snap.Counters {
		base, labels := obs.ParseName(series)
		switch base {
		case core.MetricSearches:
			if st.Searches == nil {
				st.Searches = make(map[string]int64)
			}
			st.Searches[labels["method"]] = v
		case "semdisco_embed_cache_hits_total":
			st.CacheHits = v
		case "semdisco_embed_cache_misses_total":
			st.CacheMisses = v
		}
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.CacheHitRate = float64(st.CacheHits) / float64(total)
	}
	for series, v := range snap.Gauges {
		base, labels := obs.ParseName(series)
		if base == core.MetricBuildSeconds {
			if st.BuildSeconds == nil {
				st.BuildSeconds = make(map[string]float64)
			}
			st.BuildSeconds[labels["phase"]] = v
		}
	}
	for series, h := range snap.Histograms {
		base, labels := obs.ParseName(series)
		switch base {
		case core.MetricSearchSeconds:
			if st.SearchLatency == nil {
				st.SearchLatency = make(map[string]LatencySummary)
			}
			st.SearchLatency[labels["method"]] = summarize(h)
		case core.MetricStageSeconds:
			if st.StageLatency == nil {
				st.StageLatency = make(map[string]LatencySummary)
			}
			st.StageLatency[labels["method"]+"/"+labels["stage"]] = summarize(h)
		}
	}
	return st
}

func summarize(h obs.HistSnapshot) LatencySummary {
	s := LatencySummary{
		Count: h.Count,
		P50MS: float64(h.Quantile(0.50)) / float64(time.Millisecond),
		P95MS: float64(h.Quantile(0.95)) / float64(time.Millisecond),
		P99MS: float64(h.Quantile(0.99)) / float64(time.Millisecond),
	}
	if h.Count > 0 {
		s.MeanMS = float64(h.Sum) / float64(h.Count) / float64(time.Millisecond)
	}
	return s
}
