package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/segment"
	"semdisco/internal/table"
)

// SegmentBuilder constructs a method's full index (ExS, ANNS or CTS) over
// one segment's embedded federation. The store calls it in the background
// when sealing the mutable segment and when compacting — for ANNS that
// re-trains the PQ codebook on the merged live corpus, for CTS it re-runs
// the whole UMAP → HDBSCAN → medoid pipeline, which is exactly how the
// drift triggers turn diagnostics into repair.
type SegmentBuilder func(emb *Embedded) (EncodedSearcher, error)

// SegmentStoreOptions configures a segment store.
type SegmentStoreOptions struct {
	// Build constructs the configured method's index over a sealed segment.
	Build SegmentBuilder
	// ExS configures the exhaustive scan used for the mutable segment and
	// for frozen segments whose background build has not finished yet. Its
	// threshold must match the method's, so per-segment prefixes merge into
	// the same ranking a monolithic index would produce.
	ExS ExSOptions
	// Policy bounds the store's shape; zero fields take defaults.
	Policy segment.Policy
	// Method is the label searches are recorded under ("ExS", "ANNS", "CTS").
	Method string
	// AutoMaintain kicks a background maintenance pass when a mutation
	// trips a policy threshold. Disable for deterministic tests that drive
	// Maintain and Compact by hand.
	AutoMaintain bool
}

// seg is one immutable segment: frozen (exhaustively scanned while its
// index builds in the background) or sealed (carrying the method's full
// index). Its Embedded is an RCU snapshot that never changes; only its
// shared tombstone set advances.
type seg struct {
	id       uint64
	sealed   bool
	emb      *Embedded
	searcher EncodedSearcher
	// baselineDrift and baselineDistortion are the segment's health gauges
	// at build time. The compaction policy triggers on growth beyond these
	// baselines — a fresh CTS build has nonzero medoid drift by
	// construction (the medoid is a real value, not the centroid), so
	// absolute thresholds would retrigger forever.
	baselineDrift      float64
	baselineDistortion float64
}

// mutableSeg is the store's write head: an append-only embedded federation
// republished through an atomic pointer on every add (RCU), searched by
// exhaustive scan so the write path never builds index structures.
type mutableSeg struct {
	id  uint64
	emb atomic.Pointer[Embedded]
}

// storeView is one immutable snapshot of the segment set. Readers load it
// once per operation; swaps publish a fresh value through the manifest.
type storeView struct {
	segs []*seg // frozen/sealed segments, oldest first
	mut  *mutableSeg
}

// relLoc records where a live relation currently resides, for O(1) deletes.
type relLoc struct {
	segID  uint64
	tombs  *segment.Tombstones
	slot   int
	values int
}

// SegmentStore composes the three searchers with the segment primitives
// into an LSM-like index: a mutable in-memory segment absorbs writes with
// no index build on the write path, sealed immutable segments carry full
// ANNS/CTS structures, deletes tombstone in place, and a background
// compactor merges segments and re-trains indexes when policy thresholds
// trip. Searches load one manifest snapshot and never block on writers;
// writers serialize on a mutation mutex that searches never touch.
//
// It implements the full searcher surface (EncodedSearcher, BatchSearcher).
// When the store is "simple" — one sealed segment, no tombstones, empty mutable
// segment, i.e. any index that has never been mutated — every search
// delegates straight to the base searcher, preserving the monolithic fast
// paths (and their results) bit for bit.
type SegmentStore struct {
	build  SegmentBuilder
	exsOpt ExSOptions
	policy segment.Policy
	method string
	auto   bool
	reg    *obs.Registry
	enc    embed.Encoder

	man *segment.Manifest[*storeView]

	// mu serializes mutations (Add/Delete/Update), view swaps, and the
	// owner/order bookkeeping. Searches never acquire it.
	mu        sync.Mutex
	owner     map[string]relLoc
	nextOrder int
	nextSegID uint64

	// maintMu serializes maintenance passes (seal, upgrade, compact);
	// mutations and searches proceed concurrently with a pass.
	maintMu   sync.Mutex
	maintBusy atomic.Bool

	liveRels    atomic.Int64
	deadRels    atomic.Int64
	liveVals    atomic.Int64
	deadVals    atomic.Int64
	seals       atomic.Int64
	compactions atomic.Int64
	compacting  atomic.Bool
	lastCompact atomic.Int64 // microseconds
	lastTrigger atomic.Value // string
	mutations   atomic.Int64
}

// SegmentStats is the store's observable state, exported through
// Engine.Stats and the HTTP debug surface. Texts counts vocabulary rows,
// the distinct value texts, summed over the current segments: each segment
// holds one row per text it stores, so Texts/LiveValues is the share of
// value vectors that are not copies.
type SegmentStats struct {
	// Segments counts frozen/sealed segments plus a non-empty mutable one.
	Segments int `json:"segments"`
	// SealedSegments counts segments carrying a fully built index.
	SealedSegments   int    `json:"sealed_segments"`
	MutableRelations int    `json:"mutable_relations"`
	MutableValues    int    `json:"mutable_values"`
	LiveRelations    int    `json:"live_relations"`
	DeadRelations    int    `json:"dead_relations"`
	LiveValues       int    `json:"live_values"`
	Texts            int    `json:"texts"`
	DeadValues       int    `json:"dead_values"`
	Epoch            uint64 `json:"epoch"`
	Seals            int64  `json:"seals"`
	Compactions      int64  `json:"compactions"`
	// Compacting reports a compaction is building in the background.
	Compacting bool `json:"compacting"`
	// LastCompactionMS is the last completed compaction's wall clock.
	LastCompactionMS float64 `json:"last_compaction_ms,omitempty"`
	// LastCompactionTrigger names what tripped the last compaction.
	LastCompactionTrigger string `json:"last_compaction_trigger,omitempty"`
}

// NewSegmentStore wraps a freshly built index as the base segment of a
// segment store. The base Embedded gains a tombstone set and the identity
// insertion order if it has neither.
func NewSegmentStore(base *Embedded, baseSearcher EncodedSearcher, opt SegmentStoreOptions) *SegmentStore {
	if base.Tombs == nil {
		base.Tombs = segment.NewTombstones()
	}
	if base.RelOrder == nil {
		order := make([]int, len(base.RelIDs))
		for i := range order {
			order[i] = i
		}
		base.RelOrder = order
	}
	st := &SegmentStore{
		build:  opt.Build,
		exsOpt: opt.ExS,
		policy: opt.Policy.WithDefaults(),
		method: opt.Method,
		auto:   opt.AutoMaintain,
		reg:    base.Obs,
		enc:    base.Enc,
		owner:  make(map[string]relLoc, len(base.RelIDs)),
	}
	if st.method == "" && baseSearcher != nil {
		st.method = baseSearcher.Name()
	}
	baseSeg := &seg{id: 0, sealed: true, emb: base, searcher: baseSearcher}
	st.recordBaselines(baseSeg)
	mut := &mutableSeg{id: 1}
	mut.emb.Store(NewEmptyEmbedded(base.Enc, base.Obs))
	st.nextSegID = 2
	st.man = segment.NewManifest(&storeView{segs: []*seg{baseSeg}, mut: mut})
	for i, id := range base.RelIDs {
		if base.Tombs.Dead(i) {
			st.deadRels.Add(1)
			st.deadVals.Add(int64(len(base.PerRel[i])))
			continue
		}
		st.owner[id] = relLoc{segID: 0, tombs: base.Tombs, slot: i, values: len(base.PerRel[i])}
		st.liveRels.Add(1)
		st.liveVals.Add(int64(len(base.PerRel[i])))
	}
	for _, o := range base.RelOrder {
		if o >= st.nextOrder {
			st.nextOrder = o + 1
		}
	}
	st.publishGauges()
	return st
}

// recordBaselines captures a segment's build-time drift/distortion gauges
// so the compaction policy can trigger on growth, not absolute level.
func (st *SegmentStore) recordBaselines(sg *seg) {
	hr, ok := sg.searcher.(HealthReporter)
	if !ok {
		return
	}
	h := hr.IndexHealth()
	if h.Clusters != nil {
		sg.baselineDrift = h.Clusters.MeanMedoidDrift
	}
	if h.PQ != nil && h.PQ.Trained {
		sg.baselineDistortion = h.PQ.Distortion.Mean
	}
}

// view returns the current manifest snapshot.
func (st *SegmentStore) view() *storeView {
	v, _ := st.man.Load()
	return v
}

// simple reports the view is a never-mutated single index, for which every
// search delegates to the base searcher unchanged.
func (v *storeView) simple() bool {
	return len(v.segs) == 1 && v.segs[0].sealed &&
		v.segs[0].emb.deadCount() == 0 &&
		v.mut.emb.Load().NumValues() == 0
}

// mutScan returns an exhaustive searcher over the mutable segment's
// current snapshot, or nil when it is empty.
func (st *SegmentStore) mutScan(v *storeView) (*ExS, *Embedded) {
	memb := v.mut.emb.Load()
	if memb.NumValues() == 0 {
		return nil, nil
	}
	return NewExS(memb, st.exsOpt), memb
}

// Base returns the oldest sealed segment's searcher and embedding — the
// index diagnostics (health, recall probes) introspect. On a never-mutated
// store this is exactly the engine's only index.
func (st *SegmentStore) Base() (EncodedSearcher, *Embedded) {
	v := st.view()
	return v.segs[0].searcher, v.segs[0].emb
}

// ---------------------------------------------------------------------------
// Mutation path

// Add lands a relation in the mutable segment: encode, append, republish —
// no index build. The ID must not be live (deleted IDs may be reused).
func (st *SegmentStore) Add(r *table.Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	st.mu.Lock()
	if err := st.addLocked(r); err != nil {
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	st.noteMutation()
	return nil
}

func (st *SegmentStore) addLocked(r *table.Relation) error {
	if _, live := st.owner[r.ID]; live {
		return fmt.Errorf("core: relation %q already indexed", r.ID)
	}
	v := st.view()
	cur := v.mut.emb.Load()
	ne := cur.cloneForAppend()
	if old, ok := ne.relIdx[r.ID]; ok && ne.Tombs.Dead(old) {
		// A tombstoned copy of this ID still occupies a slot in the mutable
		// segment (delete/update before any seal); drop its index entry so
		// the ID is free for reuse. The clone's map is private, so older
		// snapshots are unaffected.
		delete(ne.relIdx, r.ID)
	}
	slot, err := ne.AddRelation(r)
	if err != nil {
		return err
	}
	ne.RelOrder = append(ne.RelOrder, st.nextOrder)
	st.nextOrder++
	nvals := len(ne.PerRel[slot])
	st.owner[r.ID] = relLoc{segID: v.mut.id, tombs: ne.Tombs, slot: slot, values: nvals}
	v.mut.emb.Store(ne)
	st.liveRels.Add(1)
	st.liveVals.Add(int64(nvals))
	st.publishGauges()
	return nil
}

// Delete tombstones a relation. The slot's vectors stay in place — every
// search path filters them — until compaction reclaims the space.
func (st *SegmentStore) Delete(id string) error {
	st.mu.Lock()
	if err := st.deleteLocked(id); err != nil {
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	st.noteMutation()
	return nil
}

func (st *SegmentStore) deleteLocked(id string) error {
	loc, ok := st.owner[id]
	if !ok {
		return fmt.Errorf("core: relation %q not found", id)
	}
	loc.tombs.Mark(loc.slot)
	delete(st.owner, id)
	st.liveRels.Add(-1)
	st.deadRels.Add(1)
	st.liveVals.Add(-int64(loc.values))
	st.deadVals.Add(int64(loc.values))
	st.publishGauges()
	return nil
}

// Update replaces a relation's contents: tombstone the old copy, append
// the new one to the mutable segment, atomically with respect to other
// mutations. The relation moves to the end of the global insertion order,
// exactly as if it had been deleted and re-added.
func (st *SegmentStore) Update(r *table.Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	st.mu.Lock()
	if _, ok := st.owner[r.ID]; !ok {
		st.mu.Unlock()
		return fmt.Errorf("core: relation %q not found", r.ID)
	}
	if err := st.deleteLocked(r.ID); err != nil {
		st.mu.Unlock()
		return err
	}
	if err := st.addLocked(r); err != nil {
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	st.noteMutation()
	return nil
}

// Has reports whether id is a live relation.
func (st *SegmentStore) Has(id string) bool {
	st.mu.Lock()
	_, ok := st.owner[id]
	st.mu.Unlock()
	return ok
}

// LiveRelations returns the live relation IDs in store-global insertion
// order — the order a fresh build over the surviving corpus would index
// them in, which is the equivalence tests' construction recipe.
func (st *SegmentStore) LiveRelations() []string {
	v := st.view()
	type ord struct {
		order int
		id    string
	}
	var out []ord
	collect := func(emb *Embedded) {
		for i, id := range emb.RelIDs {
			if emb.Tombs.Dead(i) {
				continue
			}
			out = append(out, ord{order: emb.orderOf(i), id: id})
		}
	}
	for _, sg := range v.segs {
		collect(sg.emb)
	}
	collect(v.mut.emb.Load())
	sort.Slice(out, func(i, j int) bool { return out[i].order < out[j].order })
	ids := make([]string, len(out))
	for i, o := range out {
		ids[i] = o.id
	}
	return ids
}

// NumLiveRelations returns the live relation count.
func (st *SegmentStore) NumLiveRelations() int { return int(st.liveRels.Load()) }

// NumLiveValues returns the live embedded-value count.
func (st *SegmentStore) NumLiveValues() int { return int(st.liveVals.Load()) }

// noteMutation kicks an asynchronous maintenance pass when a policy
// threshold tripped. The goroutine is one-shot and CAS-guarded: any number
// of mutations while a pass runs produce at most one follow-up.
func (st *SegmentStore) noteMutation() {
	n := st.mutations.Add(1)
	if !st.auto {
		return
	}
	due := st.sealDue() || st.quickCompactDue()
	if !due && st.policy.DriftCheckEvery > 0 && n%int64(st.policy.DriftCheckEvery) == 0 {
		due = true // periodic pass to evaluate the drift triggers
	}
	if !due {
		return
	}
	if !st.maintBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer st.maintBusy.Store(false)
		_ = st.Maintain()
	}()
}

func (st *SegmentStore) sealDue() bool {
	if st.policy.MaxMutableValues <= 0 {
		return false
	}
	return st.view().mut.emb.Load().NumValues() >= st.policy.MaxMutableValues
}

func (st *SegmentStore) quickCompactDue() bool {
	v := st.view()
	if st.policy.MaxSegments > 0 && len(v.segs) > st.policy.MaxSegments {
		return true
	}
	if st.policy.MaxDeadFraction > 0 {
		dead, live := st.deadRels.Load(), st.liveRels.Load()
		if dead > 0 && float64(dead) >= st.policy.MaxDeadFraction*float64(dead+live) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Maintenance: seal, upgrade, compact

// Maintain runs one maintenance pass synchronously: seal the mutable
// segment if it is over threshold, build indexes for any frozen segments,
// then compact if a policy trigger fires. Passes serialize among
// themselves; searches and mutations proceed concurrently.
func (st *SegmentStore) Maintain() error {
	st.maintMu.Lock()
	defer st.maintMu.Unlock()
	if st.sealDue() {
		st.freeze()
	}
	if err := st.upgradeFrozen(); err != nil {
		return err
	}
	if trigger := st.compactTrigger(); trigger != "" {
		return st.compactLocked(trigger)
	}
	return nil
}

// Compact forces a full compaction (trigger "manual"), synchronously.
func (st *SegmentStore) Compact() error {
	st.maintMu.Lock()
	defer st.maintMu.Unlock()
	return st.compactLocked(segment.TriggerManual)
}

// freeze turns the current mutable segment into an immutable frozen
// segment (still exhaustively scanned — the index is built afterwards,
// outside the locks) and installs a fresh empty mutable segment. No-op on
// an empty mutable segment. Owner entries keep working: the frozen segment
// inherits the mutable segment's ID and tombstone set.
func (st *SegmentStore) freeze() {
	st.mu.Lock()
	defer st.mu.Unlock()
	v := st.view()
	memb := v.mut.emb.Load()
	if memb.NumValues() == 0 {
		return
	}
	frozen := &seg{id: v.mut.id, emb: memb, searcher: NewExS(memb, st.exsOpt)}
	newMut := &mutableSeg{id: st.nextSegID}
	st.nextSegID++
	newMut.emb.Store(NewEmptyEmbedded(st.enc, st.reg))
	segs := append(append(make([]*seg, 0, len(v.segs)+1), v.segs...), frozen)
	st.man.Swap(&storeView{segs: segs, mut: newMut})
	st.seals.Add(1)
	st.reg.Counter(MetricSeals).Inc()
	st.publishGauges()
}

// upgradeFrozen builds the method's index for every frozen segment, outside
// the mutation lock, then swaps the sealed segments in. Searches keep
// using the exhaustive scan until the swap.
func (st *SegmentStore) upgradeFrozen() error {
	v := st.view()
	built := make(map[uint64]*seg)
	for _, sg := range v.segs {
		if sg.sealed {
			continue
		}
		searcher, err := st.build(sg.emb)
		if err != nil {
			return fmt.Errorf("core: sealing segment %d: %w", sg.id, err)
		}
		ns := &seg{id: sg.id, sealed: true, emb: sg.emb, searcher: searcher}
		st.recordBaselines(ns)
		built[sg.id] = ns
	}
	if len(built) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	v = st.view()
	segs := make([]*seg, len(v.segs))
	for i, sg := range v.segs {
		if ns, ok := built[sg.id]; ok {
			segs[i] = ns
		} else {
			segs[i] = sg
		}
	}
	st.man.Swap(&storeView{segs: segs, mut: v.mut})
	return nil
}

// compactTrigger evaluates the compaction policy against the current view
// and counters, returning the trigger name or "".
func (st *SegmentStore) compactTrigger() string {
	v := st.view()
	if st.policy.MaxSegments > 0 && len(v.segs) > st.policy.MaxSegments {
		return segment.TriggerSegmentCount
	}
	if st.policy.MaxDeadFraction > 0 {
		dead, live := st.deadRels.Load(), st.liveRels.Load()
		if dead > 0 && float64(dead) >= st.policy.MaxDeadFraction*float64(dead+live) {
			return segment.TriggerDeadFraction
		}
	}
	// Drift triggers: only segments with tombstones can have drifted away
	// from their build baseline (health walks live values only), and only
	// they have anything for a rebuild to reclaim — which also guards
	// against a rebuild-loop on a corpus whose fresh build re-measures the
	// same drift.
	for _, sg := range v.segs {
		if !sg.sealed || sg.emb.deadCount() == 0 {
			continue
		}
		hr, ok := sg.searcher.(HealthReporter)
		if !ok {
			continue
		}
		h := hr.IndexHealth()
		if st.policy.MaxMedoidDrift > 0 && h.Clusters != nil &&
			h.Clusters.MeanMedoidDrift-sg.baselineDrift > st.policy.MaxMedoidDrift {
			return segment.TriggerMedoidDrift
		}
		if st.policy.MaxPQDistortion > 0 && h.PQ != nil && h.PQ.Trained &&
			h.PQ.Distortion.Mean-sg.baselineDistortion > st.policy.MaxPQDistortion {
			return segment.TriggerPQDistortion
		}
	}
	return ""
}

// compactLocked merges every segment's surviving relations into one fresh
// base segment with a newly built index, then swaps it in. Callers hold
// maintMu. The sequence:
//
//  1. Freeze the mutable segment (under mu, cheap) so the compaction input
//     is a fixed set of immutable segments; writes go to a fresh mutable.
//  2. Outside all locks: collect survivors (live at snapshot time), sorted
//     by global insertion order; build the merged embedding reusing the
//     stored vectors (no re-encoding); build the method's index — for ANNS
//     this re-trains PQ on the live corpus, for CTS it re-clusters.
//  3. Under mu: re-check every survivor against the owner map. Relations
//     deleted or updated while the build ran get tombstones on the NEW
//     segment, so no delete is ever lost to a racing compaction. Swap the
//     manifest to [merged] + current mutable.
//
// Searches are never blocked: they run against the old view during the
// build and the new view after the swap.
func (st *SegmentStore) compactLocked(trigger string) error {
	start := time.Now()
	st.freeze()
	st.compacting.Store(true)
	defer st.compacting.Store(false)

	v := st.view()
	inputs := v.segs
	mutID := v.mut.id

	type survivor struct {
		sg    *seg
		slot  int
		order int
		id    string
	}
	var survivors []survivor
	for _, sg := range inputs {
		for slot, id := range sg.emb.RelIDs {
			if sg.emb.Tombs.Dead(slot) {
				continue
			}
			survivors = append(survivors, survivor{sg: sg, slot: slot, order: sg.emb.orderOf(slot), id: id})
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].order < survivors[j].order })

	values, texts := 0, 0
	for _, sv := range survivors {
		values += len(sv.sg.emb.PerRel[sv.slot])
	}
	for _, sg := range inputs {
		texts += sg.emb.NumTexts()
	}
	merged := NewEmptyEmbedded(st.enc, st.reg)
	merged.reserve(len(survivors), values, min(texts, values))
	for _, sv := range survivors {
		merged.appendFrom(sv.sg.emb, sv.slot)
	}
	var (
		searcher EncodedSearcher
		err      error
	)
	if merged.NumValues() == 0 {
		// Everything was deleted: an empty exhaustive scan keeps the store
		// serving (CTS/ANNS builders reject empty corpora).
		searcher = NewExS(merged, st.exsOpt)
	} else {
		searcher, err = st.build(merged)
		if err != nil {
			return fmt.Errorf("core: compaction build: %w", err)
		}
	}

	st.mu.Lock()
	newSeg := &seg{id: st.nextSegID, sealed: true, emb: merged, searcher: searcher}
	st.nextSegID++
	for i, sv := range survivors {
		loc, ok := st.owner[sv.id]
		switch {
		case !ok:
			// Deleted while the build ran: carry the tombstone forward.
			merged.Tombs.Mark(i)
		case loc.segID == mutID || loc.segID >= newSeg.id:
			// Updated while the build ran: the fresh copy lives in the
			// mutable segment; the stale copy we just merged is dead.
			merged.Tombs.Mark(i)
		default:
			st.owner[sv.id] = relLoc{segID: newSeg.id, tombs: merged.Tombs, slot: i, values: loc.values}
		}
	}
	cur := st.view()
	st.man.Swap(&storeView{segs: []*seg{newSeg}, mut: cur.mut})
	// Recompute the reclaim counters exactly: only compaction-window churn
	// (marked above) and mutable-segment tombstones remain dead.
	st.recountLocked(newSeg, cur.mut)
	st.compactions.Add(1)
	st.lastCompact.Store(time.Since(start).Microseconds())
	st.lastTrigger.Store(trigger)
	st.mu.Unlock()

	st.recordBaselines(newSeg)
	st.reg.Counter(obs.L(MetricCompactions, "trigger", trigger)).Inc()
	st.reg.Histogram(MetricCompactionSeconds).Observe(time.Since(start))
	st.publishGauges()
	return nil
}

// recountLocked recomputes the live/dead counters from the post-swap state.
func (st *SegmentStore) recountLocked(base *seg, mut *mutableSeg) {
	var liveR, deadR, liveV, deadV int64
	count := func(emb *Embedded) {
		for i := range emb.RelIDs {
			n := int64(len(emb.PerRel[i]))
			if emb.Tombs.Dead(i) {
				deadR++
				deadV += n
			} else {
				liveR++
				liveV += n
			}
		}
	}
	count(base.emb)
	count(mut.emb.Load())
	st.liveRels.Store(liveR)
	st.deadRels.Store(deadR)
	st.liveVals.Store(liveV)
	st.deadVals.Store(deadV)
}

// StartMaintenance launches the background compactor: an interval ticker
// (Policy.Interval; disabled when 0) on top of the mutation-kicked passes.
// The returned stop function terminates it and waits for any in-flight
// pass.
func (st *SegmentStore) StartMaintenance() (stop func()) {
	c := segment.NewCompactor(st.policy.Interval, func(string) { _ = st.Maintain() })
	c.Start()
	return c.Stop
}

// publishGauges refreshes the segment-shape gauges.
func (st *SegmentStore) publishGauges() {
	if st.reg == nil {
		return
	}
	v := st.view()
	n := len(v.segs)
	if v.mut.emb.Load().NumValues() > 0 {
		n++
	}
	st.reg.Gauge(MetricSegments).Set(float64(n))
	st.reg.Gauge(MetricTombstonedRels).Set(float64(st.deadRels.Load()))
}

// Stats snapshots the store's shape.
func (st *SegmentStore) Stats() SegmentStats {
	v, epoch := st.man.Load()
	memb := v.mut.emb.Load()
	s := SegmentStats{
		SealedSegments:   0,
		MutableValues:    memb.NumValues(),
		MutableRelations: memb.NumRelations(),
		LiveRelations:    int(st.liveRels.Load()),
		DeadRelations:    int(st.deadRels.Load()),
		LiveValues:       int(st.liveVals.Load()),
		DeadValues:       int(st.deadVals.Load()),
		Epoch:            epoch,
		Seals:            st.seals.Load(),
		Compactions:      st.compactions.Load(),
		Compacting:       st.compacting.Load(),
		LastCompactionMS: float64(st.lastCompact.Load()) / 1000,
	}
	s.Segments = len(v.segs)
	if memb.NumValues() > 0 {
		s.Segments++
	}
	s.Texts = memb.NumTexts()
	for _, sg := range v.segs {
		if sg.sealed {
			s.SealedSegments++
		}
		s.Texts += sg.emb.NumTexts()
	}
	if t, ok := st.lastTrigger.Load().(string); ok {
		s.LastCompactionTrigger = t
	}
	return s
}

// ---------------------------------------------------------------------------
// Search path

// Name implements Searcher.
func (st *SegmentStore) Name() string { return st.method }

// Search implements Searcher.
func (st *SegmentStore) Search(query string, k int) ([]Match, error) {
	return Search(context.Background(), st, st.enc, st.reg, query, k)
}

// SearchEncoded implements EncodedSearcher — the engine's query path and
// the cluster layer's shard entry point.
func (st *SegmentStore) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return st.SearchFiltered(ctx, q, k, nil)
}

// SearchFiltered implements EncodedSearcher.
func (st *SegmentStore) SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error) {
	return searchOne(ctx, st, st.reg, q, k, allow)
}

// SearchEncodedBatch implements BatchSearcher.
func (st *SegmentStore) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	return searchBatch(ctx, st, qs, ks, costs)
}

// searchBlock is the store's one query body, over one loaded snapshot. A
// simple (never-mutated) store runs the base index's body unchanged. A
// multi-segment store runs every segment's body — the mutable segment's
// exhaustive scan included — over the whole block, each segment resolving
// allow to its own relations (tombstoned ones never pass), then merges each
// query's per-segment prefixes under the total order (score descending,
// insertion order ascending). That is the comparator a monolithic scan
// ranks by, so the merged prefix is exactly the ranking a fresh build over
// the surviving corpus would produce, and costs[i] is charged each
// segment's work for query i.
func (st *SegmentStore) searchBlock(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost) ([][]Match, error) {
	v := st.view()
	if v.simple() {
		base := v.segs[0].searcher
		return base.searchBlock(ctx, o.as(base.Name()), qs, ks, allow, costs)
	}
	sp := o.stage("segments")
	all := make([][]RankedMatch, len(qs))
	err := st.eachSegment(v, func(s EncodedSearcher, emb *Embedded) error {
		rows, err := s.searchBlock(ctx, o.as(s.Name()), qs, ks, allow, costs)
		if err != nil {
			return err
		}
		for i, ms := range rows {
			all[i] = emb.appendRanked(all[i], ms)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Match, len(qs))
	for i, k := range ks {
		if k > 0 {
			out[i] = MergeRanked(all[i], k)
		}
	}
	o.endStage(sp.AnnotateInt("segments", len(v.segs)+1).AnnotateInt("matches", len(out[0])))
	return out, nil
}

// eachSegment calls fn on every non-empty segment of v: the frozen and
// sealed ones oldest first, each with its own searcher, then the mutable
// one with an exhaustive scan. It stops at the first error.
func (st *SegmentStore) eachSegment(v *storeView, fn func(s EncodedSearcher, emb *Embedded) error) error {
	for _, sg := range v.segs {
		if sg.emb.NumValues() == 0 {
			continue
		}
		if err := fn(sg.searcher, sg.emb); err != nil {
			return err
		}
	}
	if ex, memb := st.mutScan(v); ex != nil {
		return fn(ex, memb)
	}
	return nil
}

// appendRanked appends one segment's matches to all, each tagged with its
// relation's store-global insertion rank for MergeRanked.
func (e *Embedded) appendRanked(all []RankedMatch, ms []Match) []RankedMatch {
	for _, m := range ms {
		if i, ok := e.RelIndex(m.RelationID); ok {
			all = append(all, RankedMatch{Match: m, Order: e.orderOf(i)})
		}
	}
	return all
}

// RankedMatch is a match tagged with its relation's global insertion rank,
// the tie-break of every merge in the system.
type RankedMatch struct {
	Match
	Order int
}

// MergeRanked folds top-k prefixes gathered from disjoint partitions of
// one corpus — the segments of a store, the shards of a cluster — into the
// global top-k: score descending, ties broken by ascending insertion rank.
// That is the comparator a monolithic scan ranks by (score descending,
// relation index ascending), so for exact partitions the merged ranking is
// bit-identical to the monolith's. all is sorted in place.
func MergeRanked(all []RankedMatch, k int) []Match {
	slices.SortFunc(all, func(a, b RankedMatch) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.Order, b.Order)
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]Match, len(all))
	for i, t := range all {
		out[i] = t.Match
	}
	return out
}

// IndexHealth implements HealthReporter by reporting the base segment's
// index — the structure diagnostics and drift triggers watch.
func (st *SegmentStore) IndexHealth() IndexHealth {
	base, emb := st.Base()
	if hr, ok := base.(HealthReporter); ok {
		return hr.IndexHealth()
	}
	return IndexHealth{Method: st.method, Values: emb.NumValues()}
}

// Explain locates the segment owning relationID and explains the query
// against that snapshot.
func (st *SegmentStore) Explain(query, relationID string, topN int) (*Explanation, error) {
	v := st.view()
	embs := make([]*Embedded, 0, len(v.segs)+1)
	for _, sg := range v.segs {
		embs = append(embs, sg.emb)
	}
	embs = append(embs, v.mut.emb.Load())
	for _, emb := range embs {
		i, ok := emb.RelIndex(relationID)
		if !ok || emb.Tombs.Dead(i) {
			continue
		}
		return emb.Explain(query, relationID, topN)
	}
	return nil, fmt.Errorf("core: unknown relation %q", relationID)
}
