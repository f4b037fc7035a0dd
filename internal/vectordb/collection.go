package vectordb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"semdisco/internal/hnsw"
	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/pq"
	"semdisco/internal/vec"
)

// Metric selects how similarity is computed. Scores returned by Search are
// always "higher is better".
type Metric uint8

const (
	// Cosine scores by cosine similarity; vectors are normalized on insert.
	// This is the paper's metric.
	Cosine Metric = iota
	// L2 scores by negative squared Euclidean distance.
	L2
	// Dot scores by inner product without normalization.
	Dot
)

func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case L2:
		return "l2"
	case Dot:
		return "dot"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

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
	// Metric defaults to Cosine.
	Metric Metric
	// M and EfConstruction tune the HNSW index (see hnsw.Config).
	M, EfConstruction int
	// EfSearch is the default search beam width; defaults to 64.
	EfSearch int
	// Seed makes index construction deterministic.
	Seed int64
	// PQ, when non-nil, compresses vectors once TrainSize points arrived.
	PQ *PQConfig
	// Workers bounds the parallelism of InsertBatch and PQ training. 0 or 1
	// runs serially; batch inserts are then bit-identical to the equivalent
	// sequence of Insert calls. With 2+ workers the HNSW graph shape depends
	// on insert interleaving (quality is asserted by the graph stats probe),
	// while PQ codebooks and codes stay worker-count-invariant.
	Workers int
}

// Result is one search hit: the point's id, its score and its tag.
type Result struct {
	ID    uint64
	Score float32
	Tag   int32
}

// Filter restricts a search to points whose tag it accepts.
type Filter func(tag int32) bool

// Collection stores vectors, each with one int32 tag, under one index.
type Collection struct {
	cfg CollectionConfig

	mu      sync.RWMutex
	ids     []uint64
	byID    map[uint64]int32
	vectors [][]float32 // raw vectors; nil entries once PQ takes over
	codes   [][]byte    // PQ codes; nil until trained
	tags    []int32
	deleted map[int32]struct{}

	index     *hnsw.Index
	quantizer *pq.Quantizer
	nextID    uint64

	// Observability hooks, resolved once by SetObserver so the insert path
	// never does a registry lookup. Nil hooks are no-ops.
	obsInserts *obs.Counter
	obsPQTrain *obs.Gauge
}

// SetObserver wires the collection's build instrumentation into a metrics
// registry: insert counts and Product-Quantization training time. A nil
// registry (or never calling SetObserver) keeps instrumentation off.
func (c *Collection) SetObserver(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsInserts = reg.Counter("semdisco_index_inserts_total")
	c.obsPQTrain = reg.Gauge(obs.L("semdisco_index_build_seconds", "phase", "pq_train"))
}

// NewCollection returns an empty collection. It fails if the config is
// invalid.
func NewCollection(cfg CollectionConfig) (*Collection, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, errors.New("vectordb: Dim must be positive")
	case cfg.Metric > Dot:
		return nil, fmt.Errorf("vectordb: unknown %v", cfg.Metric)
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
	c := &Collection{
		cfg:     cfg,
		byID:    make(map[uint64]int32),
		deleted: make(map[int32]struct{}),
	}
	c.index = hnsw.New(hnsw.Config{M: cfg.M, EfConstruction: cfg.EfConstruction, Seed: cfg.Seed}, c.itemDist, c.newTargetDist)
	return c, nil
}

// itemDist is the construction-time distance between two stored items: the
// pairwise distance of neighbour selection. Between PQ-coded items it is
// the code-to-code distance, read from the codebook.
func (c *Collection) itemDist(a, b int32) float32 {
	if c.codes != nil && c.codes[a] != nil && c.codes[b] != nil {
		return c.quantizer.CodeDist(c.codes[a], c.codes[b])
	}
	va, vb := c.vectorOf(a), c.vectorOf(b)
	switch c.cfg.Metric {
	case Dot:
		return -vec.Dot(va, vb)
	case Cosine:
		return 1 - vec.Dot(va, vb) // vectors are unit-normalized on insert
	default:
		return vec.L2Sq(va, vb)
	}
}

// newTargetDist answers the index once per builder (the serial insertion
// path, each InsertBatch worker). The hnsw.TargetDist it returns owns one
// M × K row table: per inserted PQ-coded target it fills the table with the
// target's per-subspace distances to every centroid, after which each of
// the beam's hundreds of distances to that target is M lookups in a table
// small enough to stay in L1/L2 — and sums the same floats in the same
// order as itemDist. Uncoded targets fall back to itemDist (a nil return).
func (c *Collection) newTargetDist() hnsw.TargetDist {
	var rows pq.Table
	return func(target int32) func(int32) float32 {
		if c.codes == nil || c.codes[target] == nil {
			return nil
		}
		rows = c.quantizer.CodeDistRows(c.codes[target], rows)
		codes := c.codes
		return func(id int32) float32 {
			if code := codes[id]; code != nil {
				return rows.Lookup(code)
			}
			return c.itemDist(id, target)
		}
	}
}

func (c *Collection) vectorOf(slot int32) []float32 {
	if v := c.vectors[slot]; v != nil {
		return v
	}
	return c.quantizer.Decode(c.codes[slot])
}

// Len returns the number of live points.
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids) - len(c.deleted)
}

// Dim returns the configured dimensionality.
func (c *Collection) Dim() int { return c.cfg.Dim }

// Insert adds a vector with its tag and returns its assigned id.
// The vector is copied (and normalized under the Cosine metric).
func (c *Collection) Insert(vector []float32, tag int32) (uint64, error) {
	if len(vector) != c.cfg.Dim {
		return 0, fmt.Errorf("vectordb: vector dim %d, want %d", len(vector), c.cfg.Dim)
	}
	v := vec.Clone(vector)
	if c.cfg.Metric == Cosine {
		vec.Normalize(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	id := c.nextID
	c.nextID++
	c.ids = append(c.ids, id)
	c.tags = append(c.tags, tag)

	if c.quantizer != nil {
		c.vectors = append(c.vectors, nil)
		c.codes = append(c.codes, c.quantizer.Encode(v))
	} else {
		c.vectors = append(c.vectors, v)
		if c.codes != nil {
			c.codes = append(c.codes, nil)
		}
		if c.cfg.PQ != nil && len(c.vectors) >= c.cfg.PQ.TrainSize {
			if err := c.trainPQLocked(); err != nil {
				return 0, err
			}
		}
	}
	slot := c.index.Add()
	c.byID[id] = slot
	c.obsInserts.Inc()
	return id, nil
}

// InsertBatch adds many vectors at once and returns their assigned ids in
// input order. tags may be nil (every tag 0), or must have one entry per
// vector.
//
// It is semantically the same as calling Insert per vector — PQ training
// still triggers on exactly the first TrainSize stored vectors, and graph
// edges created before training use raw distances while later ones use
// code-to-code distances, exactly as the incremental path does. With cfg.Workers 0 or
// 1 the resulting collection is bit-identical to the Insert loop; with 2+
// workers the clone/normalize and PQ-encode steps shard across workers and
// the HNSW inserts run concurrently.
func (c *Collection) InsertBatch(vectors [][]float32, tags []int32) ([]uint64, error) {
	if tags != nil && len(tags) != len(vectors) {
		return nil, fmt.Errorf("vectordb: %d tags for %d vectors", len(tags), len(vectors))
	}
	for i, v := range vectors {
		if len(v) != c.cfg.Dim {
			return nil, fmt.Errorf("vectordb: vector %d dim %d, want %d", i, len(v), c.cfg.Dim)
		}
	}
	workers := c.cfg.Workers
	if workers < 1 {
		workers = 1
	}
	vs := make([][]float32, len(vectors))
	par.For(len(vectors), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := vec.Clone(vectors[i])
			if c.cfg.Metric == Cosine {
				vec.Normalize(v)
			}
			vs[i] = v
		}
	})

	c.mu.Lock()
	defer c.mu.Unlock()

	startSlot := len(c.ids)
	ids := make([]uint64, len(vs))

	// encodePendingLocked fills the codes of rows appended after the
	// quantizer existed (left nil by the append loop). Encode is pure, so
	// sharding it does not change the bytes.
	encodePendingLocked := func() {
		if c.quantizer == nil {
			return
		}
		lo := c.index.Len()
		par.For(len(c.ids)-lo, workers, func(a, b int) {
			for off := a; off < b; off++ {
				slot := lo + off
				if c.codes[slot] == nil && c.vectors[slot] == nil {
					c.codes[slot] = c.quantizer.Encode(vs[slot-startSlot])
				}
			}
		})
	}
	// flushGraphLocked inserts every appended-but-unindexed row into the
	// HNSW graph.
	flushGraphLocked := func() {
		pending := len(c.ids) - c.index.Len()
		if pending == 0 {
			return
		}
		encodePendingLocked()
		first := c.index.AddBatch(pending, workers)
		for slot := int(first); slot < len(c.ids); slot++ {
			c.byID[c.ids[slot]] = int32(slot)
		}
	}

	for i := range vs {
		if c.quantizer == nil && c.cfg.PQ != nil && len(c.vectors)+1 >= c.cfg.PQ.TrainSize {
			// The next append triggers PQ training, which flips itemDist
			// from raw to code distances. Rows appended so far must enter
			// the graph first, under the distances the serial Insert loop
			// gave them.
			flushGraphLocked()
		}
		ids[i] = c.nextID
		c.nextID++
		c.ids = append(c.ids, ids[i])
		if tags != nil {
			c.tags = append(c.tags, tags[i])
		} else {
			c.tags = append(c.tags, 0)
		}
		if c.quantizer != nil {
			c.vectors = append(c.vectors, nil)
			c.codes = append(c.codes, nil) // encoded in bulk at flush time
		} else {
			c.vectors = append(c.vectors, vs[i])
			if c.codes != nil {
				c.codes = append(c.codes, nil)
			}
			if c.cfg.PQ != nil && len(c.vectors) >= c.cfg.PQ.TrainSize {
				if err := c.trainPQLocked(); err != nil {
					return nil, err
				}
			}
		}
	}
	flushGraphLocked()
	c.obsInserts.Add(int64(len(vs)))
	return ids, nil
}

// trainPQLocked trains the quantizer on the buffered raw vectors, encodes
// them, and drops raw storage. Caller holds the write lock. Training and
// encoding shard across cfg.Workers; both are worker-count-invariant, so
// the codebooks and codes match the serial run exactly.
func (c *Collection) trainPQLocked() error {
	workers := c.cfg.Workers
	if workers < 1 {
		workers = 1
	}
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
			c.vectors[i] = nil
		}
	})
	return nil
}

// Delete tombstones a point. Deleting an unknown id is a no-op. The slot
// stays in the graph (as a routing waypoint) but never appears in results.
func (c *Collection) Delete(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slot, ok := c.byID[id]; ok {
		c.deleted[slot] = struct{}{}
		delete(c.byID, id)
	}
}

// Vector returns the stored (possibly PQ-reconstructed) vector of id.
func (c *Collection) Vector(id uint64) ([]float32, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	slot, ok := c.byID[id]
	if !ok {
		return nil, false
	}
	return vec.Clone(c.vectorOf(slot)), true
}

// Queries is a block of query vectors prepared for one metric by
// Metric.Prepare: each row a copy of its query, normalized under Cosine.
// SearchBatch reads the rows as they are, so a block prepared once serves
// every collection of that metric — CTS probes each query's clusters with
// the one copy. Rows may be picked from a prepared block in any order and
// with repeats.
type Queries [][]float32

// Prepare clones queries into one buffer and, under Cosine, normalizes
// each row: the form SearchBatch expects. The caller's vectors are not
// modified.
func (m Metric) Prepare(queries [][]float32) Queries {
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
		if m == Cosine {
			vec.Normalize(out[i])
		}
	}
	return out
}

// Search returns the k best-scoring points for the query using the HNSW
// index: a SearchBatch block of one. ef overrides the collection's default
// beam width when positive. filter may be nil.
func (c *Collection) Search(query []float32, k, ef int, filter Filter) ([]Result, error) {
	out, err := c.SearchBatch(context.Background(), c.cfg.Metric.Prepare([][]float32{query}), []int{k}, []int{ef}, filter, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// walkScratch is one query walk's working state: the HNSW visited set and
// heaps, and beside them the M×K ADC table of a PQ-compressed collection
// (64 KiB at dim 256). A walk owns one; SearchBatch reuses one across its
// block, so neither is allocated per query.
type walkScratch struct {
	hnsw  hnsw.Scratch
	table pq.Table
}

// walkPool serves the walks' scratch: a SearchBatch borrows one for its
// block, so no two live walks share one and a steady query load allocates
// none.
var walkPool = sync.Pool{New: func() any { return new(walkScratch) }}

// qdCounter tallies one walk's distance computations and ADC lookups in
// plain locals; the flush after the walk pays the cost accumulator's
// atomics once, so the hot loop never sees them.
type qdCounter struct {
	dists, lookups int64
}

// countingQDLocked wraps qd to bump ctr per evaluation. Caller holds at
// least a read lock.
func (c *Collection) countingQDLocked(qd func(int32) float32, ctr *qdCounter) func(int32) float32 {
	if c.quantizer != nil {
		codes := c.codes
		return func(slot int32) float32 {
			if codes[slot] != nil {
				ctr.lookups++
			} else {
				ctr.dists++
			}
			return qd(slot)
		}
	}
	return func(slot int32) float32 {
		ctr.dists++
		return qd(slot)
	}
}

// flushCostLocked charges one walk's tallies and graph stats to cost.
// Caller holds at least a read lock.
func (c *Collection) flushCostLocked(cost *obs.Cost, ctr qdCounter, st hnsw.SearchStats) {
	cost.AddDistanceComps(ctr.dists)
	cost.AddPQLookups(ctr.lookups)
	cost.AddHNSWHops(st.Hops)
	cost.AddCandidatesGenerated(st.Candidates)
	cost.AddCandidatesPruned(st.Pruned)
	cost.AddBytesScanned(ctr.dists*int64(c.cfg.Dim)*4 + ctr.lookups*c.codeBytesLocked())
}

// searchOneLocked runs one prepared query through the index and
// materializes results over ws, which no other live walk uses. Caller
// holds at least a read lock. A nil return with no error means the walk
// was cancelled; the caller surfaces ctx.Err().
func (c *Collection) searchOneLocked(q []float32, k, ef int, filter Filter, cancelled func() bool, cost *obs.Cost, ws *walkScratch) []Result {
	qd := c.queryDistLocked(q, &ws.table)
	var ctr qdCounter
	if cost != nil {
		qd = c.countingQDLocked(qd, &ctr)
	}
	var accept func(int32) bool // nil accepts every slot
	if filter != nil || len(c.deleted) > 0 {
		accept = func(slot int32) bool {
			if _, dead := c.deleted[slot]; dead {
				return false
			}
			return filter == nil || filter(c.tags[slot])
		}
	}
	found, done, st := c.index.SearchScratch(&ws.hnsw, qd, k, ef, accept, cancelled)
	if cost != nil {
		c.flushCostLocked(cost, ctr, st)
	}
	if !done {
		return nil
	}
	out := make([]Result, 0, len(found))
	for _, n := range found {
		out = append(out, Result{ID: c.ids[n.ID], Score: c.distToScore(n.Dist), Tag: c.tags[n.ID]})
	}
	return out
}

// SearchBatch runs a block of queries, prepared for the collection's
// metric (Metric.Prepare), in one pass on the calling goroutine: one lock
// acquisition and one walk scratch — the HNSW visited set and heaps, and
// the ADC table of a PQ-compressed collection — reused across the whole
// block instead of per query. Callers walking on several cores give each
// worker its own sub-block. ks[i] and efs[i] are query i's
// result count and beam width (efs may be nil, or entries ≤ 0, for the
// collection default); a ks[i] ≤ 0 skips query i with a nil row. costs,
// when non-nil, carries one optional accumulator per query, each charged
// exactly the work its own walk performed: distance computations, ADC
// lookups and graph hops. A cancellable ctx is polled between HNSW hops, so
// an expired deadline interrupts a walk mid-graph and the context's error
// is returned. A query's results are the same in any block, a block of one
// included — scratch reuse changes where the walk's bookkeeping lives, not
// which nodes it evaluates.
func (c *Collection) SearchBatch(ctx context.Context, queries Queries, ks, efs []int, filter Filter, costs []*obs.Cost) ([][]Result, error) {
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

	ws := walkPool.Get().(*walkScratch)
	defer walkPool.Put(ws)
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([][]Result, len(queries))
	for i, q := range queries {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ks[i] <= 0 {
			continue
		}
		ef := c.cfg.EfSearch
		if efs != nil && efs[i] > 0 {
			ef = efs[i]
		}
		var cost *obs.Cost
		if costs != nil {
			cost = costs[i]
		}
		out[i] = c.searchOneLocked(q, ks[i], ef, filter, cancelled, cost, ws)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// codeBytesLocked is the PQ code width in bytes, for byte accounting.
// Caller holds at least a read lock.
func (c *Collection) codeBytesLocked() int64 {
	for _, code := range c.codes {
		if code != nil {
			return int64(len(code))
		}
	}
	return 0
}

// SearchExact scans every live point; ground truth for tests and the
// exhaustive-search code path.
func (c *Collection) SearchExact(query []float32, k int, filter Filter) ([]Result, error) {
	if len(query) != c.cfg.Dim {
		return nil, fmt.Errorf("vectordb: query dim %d, want %d", len(query), c.cfg.Dim)
	}
	q := vec.Clone(query)
	if c.cfg.Metric == Cosine {
		vec.Normalize(q)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	var table pq.Table
	qd := c.queryDistLocked(q, &table)
	if k <= 0 {
		return nil, nil
	}
	top := vec.NewTopK(k)
	for slot := range c.ids {
		s := int32(slot)
		if _, dead := c.deleted[s]; dead {
			continue
		}
		if filter != nil && !filter(c.tags[s]) {
			continue
		}
		top.Push(slot, -qd(s))
	}
	ranked := top.Sorted()
	out := make([]Result, 0, len(ranked))
	for _, r := range ranked {
		out = append(out, Result{ID: c.ids[r.ID], Score: c.distToScore(-r.Score), Tag: c.tags[r.ID]})
	}
	return out, nil
}

// queryDistLocked builds the per-query distance closure, using an ADC table
// when the collection is PQ-compressed. The table is filled into *dst,
// which is reused when already sized for the quantizer; the closure reads
// it, so *dst must not be refilled while the closure is in use. Caller
// holds at least a read lock.
func (c *Collection) queryDistLocked(q []float32, dst *pq.Table) func(int32) float32 {
	if c.quantizer != nil {
		switch c.cfg.Metric {
		case Cosine, Dot:
			table := c.quantizer.DotTable(q, *dst)
			*dst = table
			return func(slot int32) float32 {
				if code := c.codes[slot]; code != nil {
					return 1 - table.Lookup(code)
				}
				return 1 - vec.Dot(q, c.vectors[slot])
			}
		default:
			table := c.quantizer.DistTable(q, *dst)
			*dst = table
			return func(slot int32) float32 {
				if code := c.codes[slot]; code != nil {
					return table.Lookup(code)
				}
				return vec.L2Sq(q, c.vectors[slot])
			}
		}
	}
	switch c.cfg.Metric {
	case Cosine, Dot:
		return func(slot int32) float32 { return 1 - vec.Dot(q, c.vectors[slot]) }
	default:
		return func(slot int32) float32 { return vec.L2Sq(q, c.vectors[slot]) }
	}
}

// distToScore converts internal "smaller is closer" distances back to the
// metric's natural score.
func (c *Collection) distToScore(d float32) float32 {
	switch c.cfg.Metric {
	case Cosine, Dot:
		return 1 - d
	default:
		return -d
	}
}

// GraphStats reports the structural health of the collection's HNSW graph
// (per-layer occupancy, degree spread, reachability from the entry point).
func (c *Collection) GraphStats() hnsw.GraphStats {
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
	Deleted     int
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
		Points:      len(c.ids) - len(c.deleted),
		Deleted:     len(c.deleted),
		Compressed:  c.quantizer != nil,
		VectorBytes: bytesUsed,
	}
}
