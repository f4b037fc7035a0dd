package vectordb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// TrainSize is how many of the first vectors train the codebooks; Build
	// keeps a collection of fewer vectors raw. Defaults to 256.
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
	// PQ, when non-nil, compresses the vectors of a collection built from
	// at least TrainSize of them.
	PQ *PQConfig
	// Workers bounds the parallelism of Build's normalizing, PQ training
	// and encoding, and of linking rows into the graph. 0 or 1 links
	// serially; the graph is then the same edge for edge whether its rows
	// were linked in Build or by the first walk (see Build). With 2+
	// workers the HNSW graph shape depends on insert interleaving (quality
	// is asserted by the graph stats probe), while PQ codebooks and codes
	// stay worker-count-invariant.
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

// Collection stores vectors, each with one int32 tag, under one index. A
// row's slot is its index in Build's input. Build fills the collection; its
// one later change is linking the graph rows Build left pending, which the
// first reader of the graph does once (link).
type Collection struct {
	cfg CollectionConfig

	// A collection is raw or coded: without a quantizer every row has a
	// vector and codes is nil; with one every row has a code in the arena,
	// and vectors holds only the rows stored before the training set's
	// last one, which link enters under raw distances and then drops.
	vectors [][]float32 // raw unit vectors
	codes   *pq.Codes   // PQ codes; nil without a quantizer
	tags    []int32     // one per row, so len(tags) is the row count

	index     *hnsw.Index
	quantizer *pq.Quantizer
	linked    sync.Once // links the rows Build left pending

	obsHNSWInsert *obs.Gauge // nil: no-op
}

// Build stores vectors, in input order, under an HNSW index, and returns the
// collection. tags may be nil (every tag 0), or must have one entry per
// vector. reg, when non-nil, receives the build instrumentation: the row
// count, Product-Quantization training time and the time spent linking rows
// into the graph, whenever that happens (in Build, or deferred to the first
// walk or GraphStats), which excludes training and encoding.
//
// Every row is stored at once (raw, or PQ-coded once the quantizer exists),
// so every search sees it; rows are linked into the HNSW graph only when
// something can walk it. Build links every row once the collection holds
// more than ¾ × EfSearch × 2M points, the size from which a query of the
// default beam walks (scans); below that, rows stay pending until a walk
// or GraphStats links them first. With PQ on and at least TrainSize
// vectors, the quantizer trains on the first TrainSize vectors and every
// row is encoded; the unit vectors of the rows before the training set's
// last one are kept until the link, which enters those rows first under
// raw distances, drops the vectors and links the rest under code-to-code
// distances: with cfg.Workers 0 or 1 the graph, once linked, is edge for
// edge the one linking each row as it arrived would have built.
func Build(cfg CollectionConfig, vectors [][]float32, tags []int32, reg *obs.Registry) (*Collection, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, errors.New("vectordb: Dim must be positive")
	case cfg.M < 0 || cfg.M == 1 || cfg.M > 1<<16:
		return nil, fmt.Errorf("vectordb: M %d outside 2..65536 (0 for the default)", cfg.M)
	case cfg.EfConstruction < 0 || cfg.EfSearch < 0:
		return nil, errors.New("vectordb: negative beam width")
	case cfg.PQ != nil && (cfg.PQ.M < 0 || cfg.PQ.K < 0 || cfg.PQ.TrainSize < 0):
		return nil, errors.New("vectordb: negative PQ parameter")
	case tags != nil && len(tags) != len(vectors):
		return nil, fmt.Errorf("vectordb: %d tags for %d vectors", len(tags), len(vectors))
	}
	for i, v := range vectors {
		if len(v) != cfg.Dim {
			return nil, fmt.Errorf("vectordb: vector %d dim %d, want %d", i, len(v), cfg.Dim)
		}
	}
	if cfg.EfSearch == 0 {
		cfg.EfSearch = 64
	}
	if cfg.PQ != nil && cfg.PQ.TrainSize == 0 {
		cfg.PQ.TrainSize = 256
	}
	inserts := reg.Counter("semdisco_index_inserts_total")
	pqTrain := reg.Gauge(obs.L("semdisco_index_build_seconds", "phase", "pq_train"))
	c := &Collection{
		cfg:           cfg,
		vectors:       make([][]float32, len(vectors)),
		tags:          make([]int32, len(vectors)),
		obsHNSWInsert: reg.Gauge(obs.L("semdisco_index_build_seconds", "phase", "hnsw_insert")),
	}
	copy(c.tags, tags)
	c.index = hnsw.New(hnsw.Config{M: cfg.M, EfConstruction: cfg.EfConstruction, Seed: cfg.Seed}, c.itemDist, c.newTargetDist)
	par.For(len(vectors), c.workers(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.vectors[i] = vec.Normalized(vectors[i])
		}
	})
	if cfg.PQ != nil && len(vectors) >= cfg.PQ.TrainSize {
		start := time.Now()
		if err := c.trainPQ(); err != nil {
			return nil, err
		}
		pqTrain.Add(time.Since(start).Seconds())
	}
	if !c.scans(cfg.EfSearch) {
		c.link()
	}
	inserts.Add(int64(len(vectors)))
	return c, nil
}

// itemDist is the construction-time distance between two stored items: the
// pairwise distance of neighbour selection. While link enters the rows
// whose raw vectors a coded collection keeps, and throughout in a raw one,
// it is the raw distance; between PQ-coded items after that, the
// code-to-code distance, read from the codebook.
func (c *Collection) itemDist(a, b int32) float32 {
	if c.vectors == nil {
		return c.quantizer.CodeDist(c.codes, int(a), int(b))
	}
	return 1 - vec.Dot(c.vectors[a], c.vectors[b]) // vectors are unit-normalized in Build
}

// newTargetDist answers the index once per builder (the serial insertion
// path, each AddBatch worker). The hnsw.TargetDist it returns owns one
// M × K row table: per inserted PQ-coded target it fills the table with the
// target's per-subspace distances to every centroid, after which each of
// the beam's hundreds of distances to that target is M lookups in a table
// small enough to stay in L1/L2 — and sums the same floats in the same
// order as itemDist. Targets linked under raw distances use itemDist (a
// nil return).
func (c *Collection) newTargetDist() hnsw.TargetDist {
	var rows pq.Table
	return func(target int32) func(int32) float32 {
		if c.vectors != nil {
			return nil
		}
		codes := c.codes
		rows = c.quantizer.CodeDistRows(codes, int(target), rows)
		return func(id int32) float32 { return rows.Lookup(codes, int(id)) }
	}
}

// workers is cfg.Workers, at least 1.
func (c *Collection) workers() int { return max(c.cfg.Workers, 1) }

// addRows links the next count rows into the HNSW graph in slot order and
// charges the time to the hnsw_insert build gauge.
func (c *Collection) addRows(count int) {
	if count <= 0 {
		return
	}
	start := time.Now()
	c.index.AddBatch(count, c.workers())
	c.obsHNSWInsert.Add(time.Since(start).Seconds())
}

// link links every row not yet in the graph, once: every reader of the
// graph calls it first, and a reader that comes while another links waits
// for the graph to be whole. In a coded collection the rows whose raw
// vectors were kept go first, under the raw distances a row-by-row build
// linked them with before training; then the vectors are dropped and the
// rest link under code distances.
func (c *Collection) link() {
	c.linked.Do(func() {
		if c.quantizer != nil {
			c.addRows(len(c.vectors))
			c.vectors = nil
		}
		c.addRows(len(c.tags) - c.index.Len())
	})
}

// trainPQ trains the quantizer on the first TrainSize raw vectors, encodes
// every row into the code arena, and keeps only the vectors of the rows
// before the training set's last one, for link. Training and encoding
// shard across cfg.Workers, encoding one arena block per task; both are
// worker-count-invariant, so the codebooks and codes match the serial run
// exactly.
func (c *Collection) trainPQ() error {
	workers := c.workers()
	q, err := pq.Train(c.vectors[:c.cfg.PQ.TrainSize], pq.Config{M: c.cfg.PQ.M, K: c.cfg.PQ.K, Seed: c.cfg.Seed, Workers: workers})
	if err != nil {
		return fmt.Errorf("vectordb: PQ training: %w", err)
	}
	n := len(c.vectors)
	c.quantizer, c.codes = q, q.NewCodes(n)
	par.For((n+pq.BlockSlots-1)/pq.BlockSlots, workers, func(lo, hi int) {
		for i := lo * pq.BlockSlots; i < min(hi*pq.BlockSlots, n); i++ {
			q.Encode(c.vectors[i], c.codes, i)
		}
	})
	keep := c.cfg.PQ.TrainSize - 1
	clear(c.vectors[keep:])
	c.vectors = slices.Clip(c.vectors[:keep])
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
	_, out := PrepareInto(nil, nil, queries)
	return out
}

// PrepareInto is Prepare into reused storage: the rows are cloned into
// buf's backing array and listed in out's, each grown when too small. It
// returns both, for the caller to reuse; the prepared rows are views of
// the returned buffer.
func PrepareInto(buf []float32, out Queries, queries [][]float32) ([]float32, Queries) {
	n := 0
	for _, q := range queries {
		n += len(q)
	}
	buf = slices.Grow(buf[:0], n)
	out = slices.Grow(out[:0], len(queries))[:len(queries)]
	for i, q := range queries {
		lo := len(buf)
		buf = append(buf, q...)
		out[i] = buf[lo:len(buf):len(buf)]
		vec.Normalize(out[i])
	}
	return buf, out
}

// plan is how a query finds its nearest slots.
type plan uint8

const (
	// planAuto scans when the beam covers the collection and walks
	// otherwise (scans). Every product search runs it.
	planAuto plan = iota
	// planWalk walks the HNSW graph whatever the collection's size.
	planWalk
	// planScan scores every slot whatever the beam.
	planScan
)

// scanBlock is how many slots the scan scores per pass: the block's 256
// bytes of distances stay in L1 between scoring and the accept pass that
// reads them, and the ADC batch runs 8 eight-slot arena blocks per block.
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
	cands []Key
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

// countingQD wraps qd to bump ctr per evaluation.
func (c *Collection) countingQD(qd func(int32) float32, ctr *qdCounter) func(int32) float32 {
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

// flushCost charges one query's tallies and graph stats to cost.
func (c *Collection) flushCost(cost *obs.Cost, ctr qdCounter, st hnsw.SearchStats) {
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

// accept is the slot predicate of a search: the slots whose tag the
// filter accepts. A nil filter gives nil, which accepts every slot.
func (c *Collection) accept(filter Filter) func(int32) bool {
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

// scans reports whether a query of beam width ef scores every slot
// instead of walking the graph: when the collection holds at most
// scanQuarters/4 × ef × 2M slots.
func (c *Collection) scans(ef int) bool {
	per := scanQuarters * c.index.MaxDegree0()
	return (4*len(c.tags)+per-1)/per <= ef
}

// walks reports whether a query of k results and beam width ef walks
// the graph under plan p: planWalk always, planAuto when the collection is
// too large for the beam to cover (scans).
func (c *Collection) walks(k, ef int, p plan) bool {
	return p == planWalk || p == planAuto && !c.scans(max(ef, k))
}

// searchOne answers one prepared query over ws, which no other live
// query uses: by a walk of the graph when walks says so, and by a
// scan otherwise. A walking query finds every row linked (searchBatch
// links them first). A nil return means the query was cancelled; the
// caller surfaces ctx.Err().
func (c *Collection) searchOne(q []float32, k, ef int, filter Filter, cancelled func() bool, cost *obs.Cost, ws *walkScratch, p plan) []Result {
	accept := c.accept(filter)
	if !c.walks(k, ef, p) {
		return c.scan(q, k, accept, cancelled, cost, ws)
	}
	ef = max(ef, k)
	qd := c.queryDist(q, &ws.table)
	var ctr qdCounter
	if cost != nil {
		qd = c.countingQD(qd, &ctr)
	}
	found, done, st := c.index.SearchScratch(&ws.hnsw, qd, k, ef, accept, cancelled)
	if cost != nil {
		c.flushCost(cost, ctr, st)
	}
	if !done {
		return nil
	}
	return c.results(found)
}

// scan scores every slot in blocks of scanBlock — ADC lookups eight
// codes at a time for a PQ-coded collection, dot products for a raw one —
// and returns the k first slots accept takes under the walk's (distance,
// slot) order. Each distance is the bits the walk's qd gives the
// slot, so when the walk would have reached every slot (ef at least the
// slot count, layer 0 connected) the two return the same results. cost is
// charged one scanned value per slot scored — how a trace tells a scan
// from a walk — besides the lookups or distances. A nil return means the scan was cancelled; cost is charged
// the slots scored up to then, as a walk charges its work up to an abort.
func (c *Collection) scan(q []float32, k int, accept func(int32) bool, cancelled func() bool, cost *obs.Cost, ws *walkScratch) []Result {
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
		c.scoreBlock(q, ws.table, lo, dots, &ctr)
		for i, d := range dots {
			if slot := int32(lo + i); accept == nil || accept(slot) {
				cands = append(cands, KeyOf(d, slot))
			}
		}
	}
	ws.cands = cands
	var found []Key
	if done {
		found = SelectNearest(cands, k)
	}
	if cost != nil {
		c.flushCost(cost, ctr, hnsw.SearchStats{
			Candidates: int64(len(cands)),
			Pruned:     int64(len(cands) - len(found)),
		})
		cost.AddValuesScanned(ctr.dists + ctr.lookups)
	}
	if !done {
		return nil
	}
	out := make([]Result, len(found))
	for i, key := range found {
		out[i] = Result{Score: distToScore(key.Dist()), Tag: c.tags[key.Slot()]}
	}
	return out
}

// scoreBlock sets dots[i] to the query's similarity to slot lo+i —
// the ADC table's sum in a coded collection, the dot product in a raw one —
// bit for bit what queryDist's closure subtracts from 1, and tallies
// the work in ctr.
func (c *Collection) scoreBlock(q []float32, table pq.Table, lo int, dots []float32, ctr *qdCounter) {
	if c.quantizer != nil {
		table.LookupBatch(c.codes, lo, dots)
		ctr.lookups += int64(len(dots))
		return
	}
	for i := range dots {
		dots[i] = vec.Dot(q, c.vectors[lo+i])
	}
	ctr.dists += int64(len(dots))
}

// Key is a scanned candidate packed for SelectNearest: the high word is the
// bits of its distance 1 − d, mapped so that unsigned order is the float
// order, and the low word its slot. Key order is then the walk's
// (distance, slot) order (hnsw.Less). It is keyed on 1 − d, not on the
// similarity d: two different d can round to the same 1 − d, which the
// walk then orders by slot. −0 keys as +0, which Less holds equal (1 − d
// is never −0), and every NaN — which Less orders with nothing — keys as
// one value after +Inf: NaN candidates come last, by slot, with the
// distance NaN 0x7fffffff.
type Key uint64

// KeyOf packs the candidate of similarity d at slot: distance 1 − d.
func KeyOf(d float32, slot int32) Key {
	dist := 1 - d
	b := math.Float32bits(dist)
	switch {
	case dist != dist:
		b = math.MaxUint32
	case b == 1<<31: // −0
		b = 1 << 31
	case b>>31 != 0:
		b = ^b
	default:
		b |= 1 << 31
	}
	return Key(uint64(b)<<32 | uint64(uint32(slot)))
}

// Dist returns the key's distance, 1 − d.
func (k Key) Dist() float32 {
	b := uint32(k >> 32)
	if b>>31 != 0 {
		return math.Float32frombits(b &^ (1 << 31))
	}
	return math.Float32frombits(^b)
}

// Slot returns the key's slot.
func (k Key) Slot() int32 { return int32(uint32(k)) }

// SelectNearest moves the k least of keys to the front, sorted, and
// returns them: the k first candidates under the walk's (distance, slot)
// order. Slots are distinct, so every key is, and the result is the first
// k of a full sort. It is a quickselect with a median-of-three pivot and a
// Lomuto partition that swaps unconditionally and counts with the borrow
// of a subtraction, so the partition's loop has no data-dependent branch,
// then a sort of the k kept. ANNS's scan and CTS's cluster probes both
// select with it.
func SelectNearest(keys []Key, k int) []Key {
	if k < len(keys) {
		lo, hi := 0, len(keys)
	partition:
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if keys[mid] < keys[lo] {
				keys[mid], keys[lo] = keys[lo], keys[mid]
			}
			if keys[hi-1] < keys[lo] {
				keys[hi-1], keys[lo] = keys[lo], keys[hi-1]
			}
			if keys[mid] < keys[hi-1] {
				keys[mid], keys[hi-1] = keys[hi-1], keys[mid]
			}
			pivot, store := keys[hi-1], lo
			for i := lo; i < hi-1; i++ {
				x := keys[i]
				keys[i] = keys[store]
				keys[store] = x
				_, less := bits.Sub64(uint64(x), uint64(pivot), 0) // x < pivot, as a borrow
				store += int(less)
			}
			keys[store], keys[hi-1] = keys[hi-1], keys[store]
			switch {
			case k < store:
				hi = store
			case k > store+1:
				lo = store + 1
			default:
				break partition
			}
		}
		keys = keys[:k]
	}
	slices.Sort(keys)
	return keys
}

// results materializes found slots as results.
func (c *Collection) results(found []hnsw.Neighbor) []Result {
	out := make([]Result, 0, len(found))
	for _, n := range found {
		out = append(out, Result{Score: distToScore(n.Dist), Tag: c.tags[n.ID]})
	}
	return out
}

// SearchBatch runs a block of queries, prepared by Prepare, in one pass on
// the calling goroutine, with one query scratch — the HNSW visited set and
// heaps, the ADC table of a PQ-compressed collection, the scan's buffers —
// reused across the whole block instead of per query.
// Callers searching on several cores give each worker its own sub-block.
// ks[i] and efs[i] are query i's result count and beam width (efs may be
// nil, or entries ≤ 0, for the collection default); a ks[i] ≤ 0 skips
// query i with a nil row. A query whose beam covers the collection — at
// most ¾ × ef × 2M slots — scores every slot instead of walking the graph
// (see scans); a larger collection is walked. When some query of the
// block walks, the block first links the rows Build left pending (see
// Build); a block that only scans links nothing. Blocks may run
// concurrently. costs, when non-nil, carries one optional accumulator per
// query, each charged exactly the work its own query
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
	for i, k := range ks {
		if k > 0 && c.walks(k, ef(i), p) {
			c.link()
			break
		}
	}

	ws := walkPool.Get().(*walkScratch)
	defer walkPool.Put(ws)
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
		out[i] = c.searchOne(q, ks[i], ef(i), filter, cancelled, cost, ws, p)
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

// queryDist builds the walk's per-query distance closure, using an
// ADC table when the collection is PQ-compressed. The table is filled into
// *dst, which is reused when already sized for the quantizer; the closure
// reads it, so *dst must not be refilled while the closure is in use.
func (c *Collection) queryDist(q []float32, dst *pq.Table) func(int32) float32 {
	if c.quantizer != nil {
		table := c.quantizer.DotTable(q, *dst)
		*dst = table
		codes := c.codes
		return func(slot int32) float32 { return 1 - table.Lookup(codes, int(slot)) }
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
// (distortion probes). Nil when the collection is uncompressed — built from
// fewer than TrainSize vectors, or with PQ disabled.
func (c *Collection) Quantizer() *pq.Quantizer {
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
	var bytesUsed int64
	if c.codes != nil {
		bytesUsed = int64(c.codes.Size())
	} else {
		for _, v := range c.vectors {
			bytesUsed += int64(len(v)) * 4
		}
	}
	return Stats{
		Points:      len(c.tags),
		Compressed:  c.quantizer != nil,
		VectorBytes: bytesUsed,
	}
}
