package semdisco

import (
	"time"

	"semdisco/internal/obs"
)

// CostReport is the per-query work accounting attached to search results:
// distance computations, HNSW hops, PQ table lookups, values and bytes
// scanned, candidates generated and pruned, cache hits. See
// obs.CostReport.
type CostReport = obs.CostReport

// WorkloadSnapshot is the workload analyzer's point-in-time view: heavy-
// hitter queries, per-shard load and skew, costliest queries. See
// obs.WorkloadSnapshot.
type WorkloadSnapshot = obs.WorkloadSnapshot

// SLOSnapshot is the SLO engine's point-in-time view: per-objective
// multi-window burn rates and alert states. See obs.SLOSnapshot.
type SLOSnapshot = obs.SLOSnapshot

// SLOConfig tunes the service-level-objective engine: availability and
// latency objectives evaluated over rolling 5m/1h/6h windows with
// fast/slow burn-rate alert states (the Google SRE multiwindow policy).
// The zero value enables the engine with defaults: 99.9% availability,
// 99% of requests under 500ms.
type SLOConfig struct {
	// Disable turns the SLO engine off; /v1/debug/slo answers 404 and no
	// burn-rate gauges are exported.
	Disable bool
	// Availability is the target fraction of non-failing (and, in cluster
	// mode, non-degraded) requests, e.g. 0.999. Zero selects 0.999.
	Availability float64
	// LatencyObjective is the target fraction of requests completing under
	// LatencyThreshold, e.g. 0.99. Zero selects 0.99.
	LatencyObjective float64
	// LatencyThreshold is the latency objective's cutoff. Zero selects
	// 500ms.
	LatencyThreshold time.Duration
}

// newSLOEngine builds the engine for a config; nil when disabled.
func newSLOEngine(sc SLOConfig, reg *obs.Registry) *obs.SLOEngine {
	if sc.Disable {
		return nil
	}
	reg.SetHelp(obs.MetricSLOBurnRate,
		"Error-budget burn rate per objective and window; 1.0 burns the budget exactly at the sustainable rate.")
	return obs.NewSLOEngine(obs.SLOEngineConfig{
		AvailabilityObjective: sc.Availability,
		LatencyObjective:      sc.LatencyObjective,
		LatencyThreshold:      sc.LatencyThreshold,
	}, reg)
}

// newWorkload builds the workload analyzer over the given shard count.
func newWorkload(shards int, reg *obs.Registry) *obs.Workload {
	reg.SetHelps(map[string]string{
		obs.MetricWorkloadQueries: "Queries seen by the workload analyzer.",
		obs.MetricWorkloadGini:    "Gini coefficient of per-shard query load; 0 balanced, 1 maximally skewed.",
	})
	return obs.NewWorkload(obs.WorkloadConfig{Shards: shards}, reg)
}

// ConfigureSLO replaces the engine's SLO subsystem, e.g. to set objectives
// on an engine restored with LoadEngine. Call it before serving traffic;
// it must not race with Do.
func (e *Engine) ConfigureSLO(sc SLOConfig) { e.slo = newSLOEngine(sc, e.reg) }

// ConfigureSLO replaces the cluster's SLO subsystem, e.g. to set
// objectives on a cluster restored with LoadCluster. Call it before
// serving traffic; it must not race with Do.
func (c *Cluster) ConfigureSLO(sc SLOConfig) { c.slo = newSLOEngine(sc, c.reg) }
