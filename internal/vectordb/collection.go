package vectordb

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"semdisco/internal/hnsw"
	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/pq"
	"semdisco/internal/vec"
)

// PQConfig enables Product-Quantization compression of stored vectors.
type PQConfig struct {
	// M is the number of subspaces (0 = dim/8, see pq.Config).
	M int
	// K is centroids per subspace (0 = 256).
	K int
	// TrainSize is how many vectors accumulate before the codebooks are
	// trained and raw storage is dropped. Defaults to 256.
	TrainSize int
}

// CollectionConfig parameterizes a collection.
type CollectionConfig struct {
	// Dim is the vector dimensionality; required.
	Dim int
	// M and EfConstruction tune the HNSW index (see hnsw.Config).
	M, EfConstruction int
	// EfSearch is the default search beam width; defaults to 64.
	EfSearch int
	// Seed makes index construction deterministic.
	Seed int64
	// PQ, when non-nil, compresses vectors once TrainSize points arrived.
	PQ *PQConfig
	// Workers bounds the parallelism of InsertBatch, of linking rows into
	// the graph and of PQ training. 0 or 1 runs serially; the graph, once
	// linked, is then the same edge for edge whatever the batch boundaries
	// and whenever its rows were linked (on insert, or deferred until
	// something walks it; see InsertBatch). With 2+ workers the HNSW graph
	// shape depends on insert interleaving (quality is asserted by the
	// graph stats probe), while PQ codebooks and codes stay
	// worker-count-invariant.
	Workers int
}

// Result is one search hit: the point's cosine similarity to the query and
// its tag.
type Result struct {
	Score float32
	Tag   int32
}

// Filter restricts a search to points whose tag it accepts.
type Filter func(tag int32) bool

// Collection stores vectors, each with one int32 tag, under one index. Rows
// are only appended; a row's slot is its insertion index.
type Collection struct {
	cfg CollectionConfig

	// A collection is raw or coded, never both: until the quantizer is
	// trained every row has a vector and codes is nil; from then on every
	// row has a code and vectors is nil. (InsertBatch holds the write lock
	// while its new rows wait for their codes.)
	mu      sync.RWMutex
	vectors [][]float32 // raw unit vectors; nil once PQ takes over
	codes   [][]byte    // PQ codes; nil until trained
	tags    []int32     // one per row, so len(tags) is the row count

	index     *hnsw.Index
	quantizer *pq.Quantizer

	// Observability hooks, resolved once by SetObserver so the insert path
	// never does a registry lookup. Nil hooks are no-ops.
	obsInserts    *obs.Counter
	obsPQTrain    *obs.Gauge
	obsHNSWInsert *obs.Gauge
}

// SetObserver wires the collection's build instrumentation into a metrics
// registry: insert counts, Product-Quantization training time and the time
// spent linking rows into the graph, whenever that happens (on insert, or
// deferred to the first walk or GraphStats), which excludes training
// and encoding. A nil registry (or never calling SetObserver) keeps
// instrumentation off.
func (c *Collection) SetObserver(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsInserts = reg.Counter("semdisco_index_inserts_total")
	c.obsPQTrain = reg.Gauge(obs.L("semdisco_index_build_seconds", "phase", "pq_train"))
	c.obsHNSWInsert = reg.Gauge(obs.L("semdisco_index_build_seconds", "phase", "hnsw_insert"))
}

// NewCollection returns an empty collection. It fails if the config is
// invalid.
func NewCollection(cfg CollectionConfig) (*Collection, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, errors.New("vectordb: Dim must be positive")
	case cfg.M < 0 || cfg.M == 1 || cfg.M > 1<<16:
		return nil, fmt.Errorf("vectordb: M %d outside 2..65536 (0 for the default)", cfg.M)
	case cfg.EfConstruction < 0 || cfg.EfSearch < 0:
		return nil, errors.New("vectordb: negative beam width")
	case cfg.PQ != nil && (cfg.PQ.M < 0 || cfg.PQ.K < 0 || cfg.PQ.TrainSize < 0):
		return nil, errors.New("vectordb: negative PQ parameter")
	}
	if cfg.EfSearch == 0 {
		cfg.EfSearch = 64
	}
	if cfg.PQ != nil && cfg.PQ.TrainSize == 0 {
		cfg.PQ.TrainSize = 256
	}
	c := &Collection{cfg: cfg}
	c.index = hnsw.New(hnsw.Config{M: cfg.M, EfConstruction: cfg.EfConstruction, Seed: cfg.Seed}, c.itemDist, c.newTargetDist)
	return c, nil
}

// itemDist is the construction-time distance between two stored items: the
// pairwise distance of neighbour selection. Between PQ-coded items it is
// the code-to-code distance, read from the codebook.
func (c *Collection) itemDist(a, b int32) float32 {
	if c.quantizer != nil {
		return c.quantizer.CodeDist(c.codes[a], c.codes[b])
	}
	return 1 - vec.Dot(c.vectors[a], c.vectors[b]) // vectors are unit-normalized on insert
}

// newTargetDist answers the index once per builder (the serial insertion
// path, each InsertBatch worker). The hnsw.TargetDist it returns owns one
// M × K row table: per inserted PQ-coded target it fills the table with the
// target's per-subspace distances to every centroid, after which each of
// the beam's hundreds of distances to that target is M lookups in a table
// small enough to stay in L1/L2 — and sums the same floats in the same
// order as itemDist. A raw collection's targets use itemDist (a nil
// return).
func (c *Collection) newTargetDist() hnsw.TargetDist {
	var rows pq.Table
	return func(target int32) func(int32) float32 {
		if c.quantizer == nil {
			return nil
		}
		rows = c.quantizer.CodeDistRows(c.codes[target], rows)
		codes := c.codes
		return func(id int32) float32 { return rows.Lookup(codes[id]) }
	}
}

// InsertBatch appends many vectors at once, in input order. tags may be nil
// (every tag 0), or must have one entry per vector.
//
// Rows are appended and, once the quantizer is trained, PQ-encoded at
// once, so every search sees them; they are linked into the HNSW graph only
// when something can walk it. InsertBatch links every pending row once the
// collection holds more than ¾ × EfSearch × 2M points, the size from which
// a query of the default beam walks (scansLocked); below that, rows stay
// pending until a walk or GraphStats links them first. PQ training
// still triggers on exactly the first TrainSize stored vectors, and the
// rows stored before it are linked under raw distances just before
// training drops their vectors, so rows linked later use code-to-code
// distances: with cfg.Workers 0 or 1 the graph, once linked, is edge for
// edge the one linking each row on insert would have built, whatever the
// batch boundaries. With 2+ workers the clone/normalize and PQ-encode
// steps shard across workers and the HNSW inserts run concurrently.
func (c *Collection) InsertBatch(vectors [][]float32, tags []int32) error {
	if tags != nil && len(tags) != len(vectors) {
		return fmt.Errorf("vectordb: %d tags for %d vectors", len(tags), len(vectors))
	}
	for i, v := range vectors {
		if len(v) != c.cfg.Dim {
			return fmt.Errorf("vectordb: vector %d dim %d, want %d", i, len(v), c.cfg.Dim)
		}
	}
	workers := c.workers()
	vs := make([][]float32, len(vectors))
	par.For(len(vectors), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := vec.Clone(vectors[i])
			vec.Normalize(v)
			vs[i] = v
		}
	})

	c.mu.Lock()
	defer c.mu.Unlock()

	startSlot := len(c.tags)
	for i := range vs {
		if c.quantizer == nil && c.cfg.PQ != nil && len(c.tags)+1 >= c.cfg.PQ.TrainSize {
			// The next append triggers PQ training, which flips itemDist
			// from raw to code distances and drops the raw vectors. Rows
			// appended so far must enter the graph first, under the raw
			// distances they were stored with.
			c.linkLocked()
		}
		if tags != nil {
			c.tags = append(c.tags, tags[i])
		} else {
			c.tags = append(c.tags, 0)
		}
		if c.quantizer != nil {
			c.codes = append(c.codes, nil) // encoded in bulk below
			continue
		}
		c.vectors = append(c.vectors, vs[i])
		if c.cfg.PQ != nil && len(c.vectors) >= c.cfg.PQ.TrainSize {
			if err := c.trainPQLocked(); err != nil {
				return err
			}
		}
	}
	if c.quantizer != nil {
		// Rows appended after the quantizer existed hold no code yet.
		// Encode is pure, so sharding it does not change the bytes.
		par.For(len(c.tags)-startSlot, workers, func(a, b int) {
			for slot := startSlot + a; slot < startSlot+b; slot++ {
				if c.codes[slot] == nil {
					c.codes[slot] = c.quantizer.Encode(vs[slot-startSlot])
				}
			}
		})
	}
	if !c.scansLocked(c.cfg.EfSearch) {
		c.linkLocked()
	}
	c.obsInserts.Add(int64(len(vs)))
	return nil
}

// workers is cfg.Workers, at least 1.
func (c *Collection) workers() int { return max(c.cfg.Workers, 1) }

// pendingLocked is how many rows are stored but not yet linked into the
// HNSW graph: the slots from c.index.Len() on. Caller holds at least a
// read lock.
func (c *Collection) pendingLocked() int { return len(c.tags) - c.index.Len() }

// linkLocked links every pending row into the HNSW graph in slot order and
// charges the time to the hnsw_insert build gauge. Caller holds the write
// lock.
func (c *Collection) linkLocked() {
	pending := c.pendingLocked()
	if pending == 0 {
		return
	}
	start := time.Now()
	c.index.AddBatch(pending, c.workers())
	c.obsHNSWInsert.Add(time.Since(start).Seconds())
}

// link links the pending rows, taking the write lock only when there are
// some.
func (c *Collection) link() {
	c.mu.RLock()
	pending := c.pendingLocked()
	c.mu.RUnlock()
	if pending > 0 {
		c.mu.Lock()
		c.linkLocked()
		c.mu.Unlock()
	}
}

// trainPQLocked trains the quantizer on the buffered raw vectors, encodes
// them, and drops raw storage. Caller holds the write lock. Training and
// encoding shard across cfg.Workers; both are worker-count-invariant, so
// the codebooks and codes match the serial run exactly.
func (c *Collection) trainPQLocked() error {
	workers := c.workers()
	start := time.Now()
	q, err := pq.Train(c.vectors, pq.Config{M: c.cfg.PQ.M, K: c.cfg.PQ.K, Seed: c.cfg.Seed, Workers: workers})
	if err != nil {
		return fmt.Errorf("vectordb: PQ training: %w", err)
	}
	c.obsPQTrain.Add(time.Since(start).Seconds())
	c.quantizer = q
	c.codes = make([][]byte, len(c.vectors))
	par.For(len(c.vectors), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.codes[i] = q.Encode(c.vectors[i])
		}
	})
	c.vectors = nil
	return nil
}

// Queries is a block of query vectors prepared by Prepare: each row a
// normalized copy of its query. SearchBatch reads the rows as they are, so
// a block prepared once serves every search over rows of its dimension —
// CTS scans each query's clusters with the one copy. Rows may be picked
// from a prepared block in any order and with repeats.
type Queries [][]float32

// Prepare clones queries into one buffer and normalizes each row: the form
// SearchBatch expects. The caller's vectors are not modified.
func Prepare(queries [][]float32) Queries {
	n := 0
	for _, q := range queries {
		n += len(q)
	}
	buf := make([]float32, 0, n)
	out := make(Queries, len(queries))
	for i, q := range queries {
		lo := len(buf)
		buf = append(buf, q...)
		out[i] = buf[lo:len(buf):len(buf)]
		vec.Normalize(out[i])
	}
	return out
}

// plan is how a query finds its nearest slots.
type plan uint8

const (
	// planAuto scans when the beam covers the collection and walks
	// otherwise (scansLocked). Every product search runs it.
	planAuto plan = iota
	// planWalk walks the HNSW graph whatever the collection's size.
	planWalk
	// planScan scores every slot whatever the beam.
	planScan
)

// scanBlock is how many slots the scan scores per pass: the block's 256
// bytes of distances stay in L1 between scoring and the accept pass that
// reads them, and the ADC batch runs 16 four-code passes per block.
const scanBlock = 64

// scanCancelBlocks is how many scan blocks pass between two cancellation
// checks: 1,024 slots, some 20 µs of ADC scoring at dim 256.
const scanCancelBlocks = 16

// walkScratch is one query's working state: the HNSW visited set and
// heaps, the M×K ADC table of a PQ-compressed collection (64 KiB at dim
// 256), and the scan's block of distances and its candidate list. A query
// owns one; SearchBatch reuses one across its block, so none of it is
// allocated per query.
type walkScratch struct {
	hnsw  hnsw.Scratch
	table pq.Table
	dists [scanBlock]float32
	cands []hnsw.Neighbor
}

// walkPool serves the queries' scratch: a SearchBatch borrows one for its
// block, so no two live queries share one and a steady query load
// allocates none.
var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// qdCounter tallies one query's distance computations and ADC lookups in
// plain locals; the flush after the walk or scan pays the cost
// accumulator's atomics once, so the hot loop never sees them.
type qdCounter struct {
	dists, lookups int64
}

// countingQDLocked wraps qd to bump ctr per evaluation. Caller holds at
// least a read lock.
func (c *Collection) countingQDLocked(qd func(int32) float32, ctr *qdCounter) func(int32) float32 {
	if c.quantizer != nil {
		return func(slot int32) float32 {
			ctr.lookups++
			return qd(slot)
		}
	}
	return func(slot int32) float32 {
		ctr.dists++
		return qd(slot)
	}
}

// flushCostLocked charges one query's tallies and graph stats to cost.
// Caller holds at least a read lock.
func (c *Collection) flushCostLocked(cost *obs.Cost, ctr qdCounter, st hnsw.SearchStats) {
	cost.AddDistanceComps(ctr.dists)
	cost.AddPQLookups(ctr.lookups)
	cost.AddHNSWHops(st.Hops)
	cost.AddCandidatesGenerated(st.Candidates)
	cost.AddCandidatesPruned(st.Pruned)
	bytes := ctr.dists * int64(c.cfg.Dim) * 4
	if c.quantizer != nil {
		bytes += ctr.lookups * int64(c.quantizer.CodeLen())
	}
	cost.AddBytesScanned(bytes)
}

// acceptLocked is the slot predicate of a search: the slots whose tag the
// filter accepts. A nil filter gives nil, which accepts every slot. Caller
// holds at least a read lock.
func (c *Collection) acceptLocked(filter Filter) func(int32) bool {
	if filter == nil {
		return nil
	}
	return func(slot int32) bool { return filter(c.tags[slot]) }
}

// scanQuarters is, in quarters of ef × 2M, how many slots a query of
// beam width ef scans at most before it walks the graph instead. 2M is the
// layer-0 degree bound, so ef × 2M is the most adjacency slots the walk's
// ef expansions can read; near that size the walk scores most of the
// collection anyway and pays heap, visited-set and adjacency traffic on
// top of every score. BenchmarkSearchPlan (dim 256, PQ K 256) measures the
// crossover below that: at 0.73–0.91 × ef × 2M over three runs at beams
// of 128 and 320, where at ef × 2M itself the scan was 11–35% slower. ¾
// sits inside that range.
const scanQuarters = 3

// scansLocked reports whether a query of beam width ef scores every slot
// instead of walking the graph: when the collection holds at most
// scanQuarters/4 × ef × 2M slots. Caller holds at least a read lock.
func (c *Collection) scansLocked(ef int) bool {
	per := scanQuarters * c.index.MaxDegree0()
	return (4*len(c.tags)+per-1)/per <= ef
}

// walksLocked reports whether a query of k results and beam width ef walks
// the graph under plan p: planWalk always, planAuto when the collection is
// too large for the beam to cover (scansLocked). Caller holds at least a
// read lock.
func (c *Collection) walksLocked(k, ef int, p plan) bool {
	return p == planWalk || p == planAuto && !c.scansLocked(max(ef, k))
}

// searchOneLocked answers one prepared query over ws, which no other live
// query uses: by a walk of the graph when walksLocked says so, and by a
// scan otherwise. A walking query finds every row linked (searchBatch
// links them first). Caller holds at least a read lock. A nil return means
// the query was cancelled; the caller surfaces ctx.Err().
func (c *Collection) searchOneLocked(q []float32, k, ef int, filter Filter, cancelled func() bool, cost *obs.Cost, ws *walkScratch, p plan) []Result {
	accept := c.acceptLocked(filter)
	if !c.walksLocked(k, ef, p) {
		return c.scanLocked(q, k, accept, cancelled, cost, ws)
	}
	ef = max(ef, k)
	qd := c.queryDistLocked(q, &ws.table)
	var ctr qdCounter
	if cost != nil {
		qd = c.countingQDLocked(qd, &ctr)
	}
	found, done, st := c.index.SearchScratch(&ws.hnsw, qd, k, ef, accept, cancelled)
	if cost != nil {
		c.flushCostLocked(cost, ctr, st)
	}
	if !done {
		return nil
	}
	return c.resultsLocked(found)
}

// scanLocked scores every slot in blocks of scanBlock — ADC lookups four
// codes at a time for a PQ-coded collection, dot products for a raw one —
// and returns the k first slots accept takes under the walk's (distance,
// slot) order. Each distance is the bits the walk's qd gives the
// slot, so when the walk would have reached every slot (ef at least the
// slot count, layer 0 connected) the two return the same results. Caller
// holds at least a read lock. cost is charged one scanned value per slot
// scored — how a trace tells a scan from a walk — besides the lookups or
// distances. A nil return means the scan was cancelled; cost is charged
// the slots scored up to then, as a walk charges its work up to an abort.
func (c *Collection) scanLocked(q []float32, k int, accept func(int32) bool, cancelled func() bool, cost *obs.Cost, ws *walkScratch) []Result {
	if c.quantizer != nil {
		ws.table = c.quantizer.DotTable(q, ws.table)
	}
	n := len(c.tags)
	cands := ws.cands[:0]
	var ctr qdCounter
	done := true
	for lo := 0; lo < n; lo += scanBlock {
		if cancelled != nil && lo > 0 && lo%(scanBlock*scanCancelBlocks) == 0 && cancelled() {
			done = false
			break
		}
		hi := min(lo+scanBlock, n)
		dots := ws.dists[:hi-lo]
		c.scoreBlockLocked(q, ws.table, lo, dots, &ctr)
		for i, d := range dots {
			if slot := int32(lo + i); accept == nil || accept(slot) {
				cands = append(cands, hnsw.Neighbor{ID: slot, Dist: 1 - d})
			}
		}
	}
	ws.cands = cands
	var found []hnsw.Neighbor
	if done {
		found = SelectNearest(cands, k)
	}
	if cost != nil {
		c.flushCostLocked(cost, ctr, hnsw.SearchStats{
			Candidates: int64(len(cands)),
			Pruned:     int64(len(cands) - len(found)),
		})
		cost.AddValuesScanned(ctr.dists + ctr.lookups)
	}
	if !done {
		return nil
	}
	return c.resultsLocked(found)
}

// scoreBlockLocked sets dots[i] to the query's similarity to slot lo+i —
// the ADC table's sum in a coded collection, the dot product in a raw one —
// bit for bit what queryDistLocked's closure subtracts from 1, and tallies
// the work in ctr. Caller holds at least a read lock.
func (c *Collection) scoreBlockLocked(q []float32, table pq.Table, lo int, dots []float32, ctr *qdCounter) {
	if c.quantizer != nil {
		table.LookupBatch(c.codes[lo:lo+len(dots)], dots)
		ctr.lookups += int64(len(dots))
		return
	}
	for i := range dots {
		dots[i] = vec.Dot(q, c.vectors[lo+i])
	}
	ctr.dists += int64(len(dots))
}

// SelectNearest moves the k first of cands under the walk's (distance,
// slot) order to the front, sorted, and returns them: a linear partial
// select, then a sort of the k kept. Slots are distinct, so for NaN-free
// distances the order is total and the result is the first k of a full
// sort.
func SelectNearest(cands []hnsw.Neighbor, k int) []hnsw.Neighbor {
	if k < len(cands) {
		partialSelect(cands, k)
		cands = cands[:k]
	}
	slices.SortFunc(cands, hnsw.Compare)
	return cands
}

// partialSelect reorders a so that a[:k] holds its k first entries under
// hnsw.Less, in no particular order (0 < k < len(a)): quickselect with a
// median-of-three pivot and a Lomuto partition that swaps unconditionally,
// so the partition's one data-dependent branch is the counter increment.
// Every round drops the pivot from the range, so it ends whatever the
// comparisons say — a NaN distance included.
func partialSelect(a []hnsw.Neighbor, k int) {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if hnsw.Less(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if hnsw.Less(a[hi-1], a[lo]) {
			a[hi-1], a[lo] = a[lo], a[hi-1]
		}
		if hnsw.Less(a[mid], a[hi-1]) {
			a[mid], a[hi-1] = a[hi-1], a[mid]
		}
		pivot, store := a[hi-1], lo
		for i := lo; i < hi-1; i++ {
			x := a[i]
			a[i] = a[store]
			a[store] = x
			if hnsw.Less(x, pivot) {
				store++
			}
		}
		a[store], a[hi-1] = a[hi-1], a[store]
		switch {
		case k < store:
			hi = store
		case k > store+1:
			lo = store + 1
		default:
			return
		}
	}
}

// resultsLocked materializes found slots as results. Caller holds at least
// a read lock.
func (c *Collection) resultsLocked(found []hnsw.Neighbor) []Result {
	out := make([]Result, 0, len(found))
	for _, n := range found {
		out = append(out, Result{Score: distToScore(n.Dist), Tag: c.tags[n.ID]})
	}
	return out
}

// SearchBatch runs a block of queries, prepared by Prepare, in one pass on
// the calling goroutine: one lock acquisition and one query scratch — the
// HNSW visited set and heaps, the ADC table of a PQ-compressed collection,
// the scan's buffers — reused across the whole block instead of per query.
// Callers searching on several cores give each worker its own sub-block.
// ks[i] and efs[i] are query i's result count and beam width (efs may be
// nil, or entries ≤ 0, for the collection default); a ks[i] ≤ 0 skips
// query i with a nil row. A query whose beam covers the collection — at
// most ¾ × ef × 2M slots — scores every slot instead of walking the graph
// (see scansLocked); a larger collection is walked. When some query of the
// block walks while rows are still pending, the block first links them
// into the graph under the write lock (see InsertBatch); a block that only
// scans links nothing. costs, when non-nil, carries one optional
// accumulator per query, each charged exactly the work its own query
// performed: distance computations, ADC lookups and graph hops, or for a
// scan one scanned value per slot and no hops; linking is charged to no
// query. A cancellable ctx is polled between HNSW hops and between scan
// blocks, so an expired deadline interrupts a query mid-flight and the
// context's error is returned. A query's results are the same in any
// block, a block of one included — scratch reuse changes where the
// bookkeeping lives, not which slots are scored.
func (c *Collection) SearchBatch(ctx context.Context, queries Queries, ks, efs []int, filter Filter, costs []*obs.Cost) ([][]Result, error) {
	return c.searchBatch(ctx, queries, ks, efs, filter, costs, planAuto)
}

// searchBatch is SearchBatch under plan p.
func (c *Collection) searchBatch(ctx context.Context, queries Queries, ks, efs []int, filter Filter, costs []*obs.Cost, p plan) ([][]Result, error) {
	if len(ks) != len(queries) {
		return nil, fmt.Errorf("vectordb: %d ks for %d queries", len(ks), len(queries))
	}
	if efs != nil && len(efs) != len(queries) {
		return nil, fmt.Errorf("vectordb: %d efs for %d queries", len(efs), len(queries))
	}
	if costs != nil && len(costs) != len(queries) {
		return nil, fmt.Errorf("vectordb: %d costs for %d queries", len(costs), len(queries))
	}
	for i, q := range queries {
		if len(q) != c.cfg.Dim {
			return nil, fmt.Errorf("vectordb: query %d dim %d, want %d", i, len(q), c.cfg.Dim)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cancelled func() bool
	if ctx.Done() != nil {
		cancelled = func() bool { return ctx.Err() != nil }
	}

	ef := func(i int) int {
		if efs != nil && efs[i] > 0 {
			return efs[i]
		}
		return c.cfg.EfSearch
	}
	walks := func() bool {
		for i, k := range ks {
			if k > 0 && c.walksLocked(k, ef(i), p) {
				return true
			}
		}
		return false
	}

	ws := walkPool.Get().(*walkScratch)
	defer walkPool.Put(ws)
	c.mu.RLock()
	// An insert may append rows between the write lock's release and the
	// read lock's return, so the check repeats until a walk finds every
	// row linked.
	for c.pendingLocked() > 0 && walks() {
		c.mu.RUnlock()
		c.mu.Lock()
		c.linkLocked()
		c.mu.Unlock()
		c.mu.RLock()
	}
	defer c.mu.RUnlock()
	out := make([][]Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ks[i] <= 0 {
			continue
		}
		var cost *obs.Cost
		if costs != nil {
			cost = costs[i]
		}
		out[i] = c.searchOneLocked(q, ks[i], ef(i), filter, cancelled, cost, ws, p)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SearchExact returns the k best-scoring points by scoring every
// slot: the scan every small-collection search runs, whatever the
// collection's size. It is the ground truth of the recall tests.
func (c *Collection) SearchExact(query []float32, k int, filter Filter) ([]Result, error) {
	out, err := c.searchBatch(context.Background(), Prepare([][]float32{query}), []int{k}, nil, filter, nil, planScan)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// queryDistLocked builds the walk's per-query distance closure, using an
// ADC table when the collection is PQ-compressed. The table is filled into
// *dst, which is reused when already sized for the quantizer; the closure
// reads it, so *dst must not be refilled while the closure is in use.
// Caller holds at least a read lock.
func (c *Collection) queryDistLocked(q []float32, dst *pq.Table) func(int32) float32 {
	if c.quantizer != nil {
		table := c.quantizer.DotTable(q, *dst)
		*dst = table
		return func(slot int32) float32 { return 1 - table.Lookup(c.codes[slot]) }
	}
	return func(slot int32) float32 { return 1 - vec.Dot(q, c.vectors[slot]) }
}

// distToScore converts the internal cosine distance (smaller is closer)
// back to the cosine similarity.
func distToScore(d float32) float32 { return 1 - d }

// GraphStats reports the structural health of the collection's HNSW graph
// (per-layer occupancy, degree spread, reachability from the entry point).
// Pending rows are linked first, so the graph reported is the one a walk
// would take, and the linking is charged to the hnsw_insert build gauge.
func (c *Collection) GraphStats() hnsw.GraphStats {
	c.link()
	return c.index.Stats()
}

// Quantizer exposes the trained Product Quantizer for diagnostics
// (distortion probes). Nil while the collection is uncompressed — before
// TrainSize inserts, or when PQ is disabled.
func (c *Collection) Quantizer() *pq.Quantizer {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.quantizer
}

// Stats describes a collection's storage.
type Stats struct {
	Points      int
	Compressed  bool
	VectorBytes int64
}

// Stats reports size and compression state.
func (c *Collection) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var bytesUsed int64
	for _, v := range c.vectors {
		bytesUsed += int64(len(v)) * 4
	}
	for _, code := range c.codes {
		bytesUsed += int64(len(code))
	}
	return Stats{
		Points:      len(c.tags),
		Compressed:  c.quantizer != nil,
		VectorBytes: bytesUsed,
	}
}
