package semdisco

import (
	"time"

	"semdisco/internal/obs"
)

// TracingConfig tunes the span-tree tracing subsystem. Every search runs
// under a 128-bit trace ID with a root span and per-stage child spans; a
// tail-based store retains the traces whose outcome makes them worth a
// human's time — errors, degraded or hedged scatter-gathers, latency over
// the threshold — plus a 1-in-M head sample for baseline comparison. The
// zero value enables tracing with defaults (256-trace store, no latency
// criterion, head sample 1 in 64).
type TracingConfig struct {
	// Disable turns trace retention off: the trace store is not created.
	// Request.Trace still returns stage breakdowns.
	Disable bool
	// StoreSize is the retained-trace ring capacity; default 256.
	StoreSize int
	// LatencyThreshold retains every trace whose request ran at least this
	// long. Zero disables the latency criterion; errors, degradation and
	// hedging still retain regardless.
	LatencyThreshold time.Duration
	// HeadSampleEvery keeps 1 in every M otherwise-uninteresting traces so
	// the store always holds healthy baselines. Zero selects the default of
	// 64; negative disables head sampling entirely.
	HeadSampleEvery int
}

// StoredTrace is one retained trace: the retention reason, the request
// summary and the complete span records. See obs.StoredTrace.
type StoredTrace = obs.StoredTrace

// StoredSpan is one completed span of a stored trace, positioned in the
// span tree by its ParentID. See obs.StoredSpan.
type StoredSpan = obs.StoredSpan

// newTraceStore builds the tail-sampling store for a config; nil when
// tracing is disabled.
func newTraceStore(tc TracingConfig) *obs.TraceStore {
	if tc.Disable {
		return nil
	}
	every := tc.HeadSampleEvery
	switch {
	case every == 0:
		every = 64
	case every < 0:
		every = 0
	}
	return obs.NewTraceStore(obs.TraceStoreConfig{
		Capacity:         tc.StoreSize,
		LatencyThreshold: tc.LatencyThreshold,
		HeadSampleEvery:  every,
	})
}

// ConfigureTracing replaces the engine's tracing subsystem, e.g. to apply
// a retention threshold to an engine restored with LoadEngine. Call it
// before serving traffic; it must not race with Do.
func (e *Engine) ConfigureTracing(tc TracingConfig) { e.traces = newTraceStore(tc) }

// ConfigureTracing replaces the cluster's tracing subsystem, e.g. to apply
// a retention threshold to a cluster restored with LoadCluster. Call it
// before serving traffic; it must not race with Do.
func (c *Cluster) ConfigureTracing(tc TracingConfig) { c.traces = newTraceStore(tc) }
