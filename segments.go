package semdisco

import (
	"context"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/segment"
)

// SegmentsConfig tunes the engine's segment store — the LSM-like layout
// that makes the corpus mutable: Adds land in a small in-memory mutable
// segment (no index build on the write path), Deletes tombstone in place,
// and a background compactor merges segments and re-trains the method's
// index structures when churn warrants it. The zero value enables
// automatic maintenance with defaults.
type SegmentsConfig struct {
	// MaxMutableValues seals the mutable segment once it holds this many
	// value vectors; the sealed segment gets the method's full index built
	// in the background. Default 4096. Negative disables size-based seals.
	MaxMutableValues int
	// MaxSegments triggers compaction when the store exceeds this many
	// immutable segments. Default 4. Negative disables.
	MaxSegments int
	// MaxDeadFraction triggers compaction when tombstoned relations exceed
	// this fraction of the corpus. Default 0.2. Negative disables.
	MaxDeadFraction float64
	// MaxMedoidDrift triggers a re-clustering compaction when a sealed CTS
	// segment's mean medoid drift grows this far beyond its build-time
	// baseline. Default 0.15. Negative disables.
	MaxMedoidDrift float64
	// MaxPQDistortion triggers a PQ re-train compaction when a sealed ANNS
	// segment's sampled distortion grows this far beyond its build-time
	// baseline. Default 0.25. Negative disables.
	MaxPQDistortion float64
	// DriftCheckEvery evaluates the drift triggers every Nth mutation
	// (they walk the index, so per-mutation checks would be wasteful).
	// Default 64. Negative disables periodic checks.
	DriftCheckEvery int
	// CompactionInterval additionally runs a maintenance pass on a timer
	// when StartCompactor is used. 0 leaves it mutation-driven only.
	CompactionInterval time.Duration
	// Manual disables automatic background maintenance: segments seal and
	// compact only via explicit Compact/CompactionCheck calls (or a
	// StartCompactor ticker). Deterministic tests want this.
	Manual bool
}

// segmentPolicy translates the public config into the store's policy.
func (sc SegmentsConfig) segmentPolicy() segment.Policy {
	return segment.Policy{
		MaxMutableValues: sc.MaxMutableValues,
		MaxSegments:      sc.MaxSegments,
		MaxDeadFraction:  sc.MaxDeadFraction,
		MaxMedoidDrift:   sc.MaxMedoidDrift,
		MaxPQDistortion:  sc.MaxPQDistortion,
		DriftCheckEvery:  sc.DriftCheckEvery,
		Interval:         sc.CompactionInterval,
	}.WithDefaults()
}

// segmentStoreOptions assembles the store options for one engine or shard:
// the method builder, the mutable-segment scan matched to the method's
// effective threshold, and the compaction policy.
func segmentStoreOptions(cfg Config) core.SegmentStoreOptions {
	return core.SegmentStoreOptions{
		Build:        func(emb *core.Embedded) (core.EncodedSearcher, error) { return buildSearcher(cfg, emb) },
		ExS:          mutableExSOptions(cfg),
		Policy:       cfg.Segments.segmentPolicy(),
		Method:       cfg.Method.String(),
		AutoMaintain: !cfg.Segments.Manual,
	}
}

// mutableExSOptions derives the exhaustive-scan options for the mutable
// segment (and for frozen segments awaiting their background build) from
// the method's own effective threshold, so per-segment result prefixes
// merge under one consistent cutoff.
func mutableExSOptions(cfg Config) ExSOptions {
	opt := cfg.ExS
	switch cfg.Method {
	case ANNS:
		opt = ExSOptions{Threshold: cfg.ANNS.Threshold}
	case CTS:
		opt = ExSOptions{Threshold: cfg.CTS.Threshold}
	}
	if opt.Threshold == 0 {
		opt.Threshold = cfg.Threshold
	}
	return opt
}

// SegmentStats describes the engine's segment store: segment counts, live
// and tombstoned volumes, seal/compaction counters and the last
// compaction's trigger and duration.
type SegmentStats = core.SegmentStats

// SegmentStats snapshots the engine's segment store.
func (e *Engine) SegmentStats() SegmentStats { return e.store.Stats() }

// DeleteRelation implements Backend: the relation is tombstoned, stops
// appearing in every search method's results immediately, and its vectors
// are physically reclaimed by the next compaction. Returns an error for
// unknown IDs.
func (e *Engine) DeleteRelation(_ context.Context, relationName string) error {
	if err := e.store.Delete(relationName); err != nil {
		return err
	}
	e.relMu.Lock()
	delete(e.relSource, relationName)
	e.relMu.Unlock()
	return nil
}

// UpdateRelation implements Backend: the old copy is tombstoned and the
// new one lands in the mutable segment, atomically with respect to other
// mutations. Returns an error for unknown IDs (use AddRelation for new
// relations).
func (e *Engine) UpdateRelation(_ context.Context, r *Relation) error {
	if err := e.store.Update(r); err != nil {
		return err
	}
	e.relMu.Lock()
	e.relSource[r.ID] = r.Source
	e.relMu.Unlock()
	return nil
}

// Delete is DeleteRelation under a background context.
func (e *Engine) Delete(relationName string) error {
	return e.DeleteRelation(context.Background(), relationName)
}

// Update is UpdateRelation under a background context.
func (e *Engine) Update(r *Relation) error { return e.UpdateRelation(context.Background(), r) }

// Compact forces a full compaction now: every segment's surviving
// relations merge into one fresh base segment and the method's index is
// rebuilt over them (re-trained PQ, re-run clustering). Searches proceed
// during the rebuild against the old segments and switch atomically to
// the new one. Compactions serialize among themselves.
func (e *Engine) Compact() error { return e.store.Compact() }

// CompactionCheck runs one maintenance pass synchronously: seal the
// mutable segment if it is over threshold, build indexes for any sealed-
// but-unindexed segments, then compact if a policy trigger (segment
// count, dead fraction, medoid drift, PQ distortion) fires. This is the
// same pass automatic maintenance runs in the background.
func (e *Engine) CompactionCheck() error { return e.store.Maintain() }

// StartCompactor launches a background maintenance ticker on top of the
// mutation-driven passes (interval from SegmentsConfig.CompactionInterval,
// disabled when 0). The returned stop function terminates it and waits
// for any in-flight pass.
func (e *Engine) StartCompactor() (stop func()) { return e.store.StartMaintenance() }

// LiveRelations returns the IDs of every live (non-tombstoned) relation
// in global insertion order — the order in which a fresh engine built
// from the surviving corpus would index them.
func (e *Engine) LiveRelations() []string { return e.store.LiveRelations() }

// Has reports whether a relation is live in the engine.
func (e *Engine) Has(relationName string) bool { return e.store.Has(relationName) }
