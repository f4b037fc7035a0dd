// Package hnsw implements the Hierarchical Navigable Small World graph index
// of Malkov & Yashunin (TPAMI 2018) for approximate nearest-neighbour search.
//
// The index is decoupled from vector storage: it identifies items by dense
// int32 ids and asks the caller for distances through callbacks — an
// item-to-item distance used during construction (optionally specialized
// per inserted item, see TargetDist), and a per-query closure used during
// search. This lets the vector database run the same graph over raw float32
// vectors or over Product-Quantization codes with a lookup table built once
// per query, and once per inserted item.
//
// Distances are "smaller is closer". For cosine similarity over unit
// vectors, pass 1 - dot(a, b).
package hnsw

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Config controls graph shape and construction effort.
type Config struct {
	// M is the maximum number of neighbours per node on layers ≥ 1.
	// Layer 0 allows 2M. Defaults to 16.
	M int
	// EfConstruction is the beam width during insertion. Defaults to 200.
	EfConstruction int
	// Seed drives the random level assignment.
	Seed int64
}

// Neighbor is one search result: an item id and its distance to the query.
type Neighbor struct {
	ID   int32
	Dist float32
}

// SearchStats counts the work one search performed, in graph units: hops
// (greedy-descent moves plus layer-0 beam expansions), candidates admitted
// to the beam, and candidates pruned (evaluated neighbours that failed the
// beam bound, plus beam evictions). Distance computations are not counted
// here — the caller owns qd and can count them exactly.
type SearchStats struct {
	Hops       int64
	Candidates int64
	Pruned     int64
}

// TargetDist is the build-time twin of the per-query qd Search takes: given
// the item about to be inserted, it returns that item's distance-to-target
// function, which the insertion's greedy descent and beams then call once
// per evaluated node. It lets the owner do per-target work once (a PQ row
// table, say) instead of per pair. A nil return falls back to dist(id,
// target). The returned function must agree with dist bit for bit; it is
// only valid until the next call.
type TargetDist func(target int32) func(id int32) float32

// Index is an HNSW graph. Add must not race with Search; a sync.RWMutex
// internally allows concurrent Search calls after (or between) Adds.
type Index struct {
	m              int
	mMax0          int
	efConstruction int
	ml             float64

	dist          func(a, b int32) float32
	newTargetDist func() TargetDist

	mu  sync.RWMutex
	rng *rand.Rand
	// nodes[id][l] lists the ids node id is connected to on layer l;
	// len(nodes[id]) is the node's level + 1.
	nodes    [][][]int32
	entry    int32
	maxLevel int
	// serial is the builder of the Add / AddBatch(workers ≤ 1) path,
	// created on first use and guarded by mu's write side.
	serial *builder
}

// New creates an empty index whose construction-time distances come from
// dist, which must be symmetric and non-negative. newTargetDist, when
// non-nil, supplies the owner's per-insertion distance: it is called once
// per builder — once for the serial insertion path, once per AddBatch worker
// — so whatever state the TargetDist it returns keeps between insertions is
// never shared between two goroutines.
func New(cfg Config, dist func(a, b int32) float32, newTargetDist func() TargetDist) *Index {
	if cfg.M == 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction == 0 {
		cfg.EfConstruction = 200
	}
	return &Index{
		m:              cfg.M,
		mMax0:          2 * cfg.M,
		efConstruction: cfg.EfConstruction,
		ml:             1 / math.Log(float64(cfg.M)),
		dist:           dist,
		newTargetDist:  newTargetDist,
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		entry:          -1,
		maxLevel:       -1,
	}
}

// Len returns the number of indexed items.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.nodes)
}

// Add inserts the next item and returns its id (ids are assigned densely in
// insertion order: 0, 1, 2, …). The caller must be able to serve distances
// for the new id before calling Add.
func (ix *Index) Add() int32 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.addLocked()
}

// addLocked is the serial insertion; the caller holds ix.mu. AddBatch with
// Workers: 1 funnels through this exact path, which is what makes the
// serial build bit-identical whether items arrive one Add at a time or in
// one batch.
func (ix *Index) addLocked() int32 {
	id := int32(len(ix.nodes))
	level := ix.randomLevel()
	ix.grow(level)
	if ix.entry < 0 {
		ix.entry = id
		ix.maxLevel = level
		return id
	}
	if ix.serial == nil {
		ix.serial = ix.newBuilder(nil)
	}
	ix.serial.insert(id, level)
	return id
}

// grow appends one unlinked node of the given level.
func (ix *Index) grow(level int) {
	ix.nodes = append(ix.nodes, make([][]int32, level+1))
}

// randomLevel samples the exponentially-decaying level distribution.
func (ix *Index) randomLevel() int {
	u := ix.rng.Float64()
	for u == 0 {
		u = ix.rng.Float64()
	}
	return int(math.Floor(-math.Log(u) * ix.ml))
}

// neighborsAt returns id's adjacency list on layer l, nil above the node's
// level. The slice aliases the graph.
func (ix *Index) neighborsAt(id int32, l int) []int32 {
	layers := ix.nodes[id]
	if l >= len(layers) {
		return nil
	}
	return layers[l]
}

// cancelCheckHops is how many beam-search node expansions pass between two
// cancellation checks: frequent enough that a deadline interrupts a walk
// within a handful of distance computations, rare enough that the check
// never shows up in profiles.
const cancelCheckHops = 64

// greedyClosest walks layer l from ep, following the steepest descent under
// qd until no neighbour is closer.
func (ix *Index) greedyClosest(sc *Scratch, ep int32, qd func(int32) float32, l int) int32 {
	cur := ep
	curD := qd(cur)
	for {
		improved := false
		for _, n := range ix.neighbors(sc, cur, l) {
			if d := qd(n); d < curD {
				cur, curD = n, d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// neighbors is neighborsAt for a walk: inside a concurrent batch (sc.locks
// set) it copies the list out under the node's lock, so distance
// evaluations never run while holding one. The copy lives in sc and is
// overwritten by the next call.
func (ix *Index) neighbors(sc *Scratch, id int32, l int) []int32 {
	if sc.locks == nil {
		return ix.neighborsAt(id, l)
	}
	sc.locks[id].Lock()
	sc.nbBuf = append(sc.nbBuf[:0], ix.neighborsAt(id, l)...)
	sc.locks[id].Unlock()
	return sc.nbBuf
}

// searchLayer is the one beam search: every walk — serial and concurrent
// insertion, single and batched query — runs this body over its own sc. It
// walks layer l from ep with beam width ef, using qd for distances and
// skipping items rejected by filter. The entry point is always evaluated
// even if filtered, so the walk can escape filtered regions; filtered
// items never appear in the result. cancelled, when non-nil, is polled
// every cancelCheckHops expansions; a true return abandons the walk and
// reports false. st, when non-nil, receives the walk's work counters; it is
// written once at the end from plain locals, so the loop body stays free of
// pointer chasing. The result is sorted ascending by (distance, id) and
// aliases sc: it is valid until sc's next walk.
func (ix *Index) searchLayer(sc *Scratch, ep int32, qd func(int32) float32, ef, l int, filter func(int32) bool, cancelled func() bool, st *SearchStats) ([]Neighbor, bool) {
	gen := sc.begin(len(ix.nodes))
	visited := sc.visited
	visited[ep] = gen

	epDist := qd(ep)
	sc.cand.push(Neighbor{ep, epDist})
	if filter == nil || filter(ep) {
		sc.res.push(Neighbor{ep, epDist})
	}

	hops := 0
	var expansions, admitted, pruned int64
	for len(sc.cand) > 0 {
		if cancelled != nil {
			hops++
			if hops%cancelCheckHops == 0 && cancelled() {
				return nil, false
			}
		}
		c := sc.cand.pop()
		if len(sc.res) >= ef && c.Dist > sc.res[0].Dist {
			break
		}
		expansions++
		for _, n := range ix.neighbors(sc, c.ID, l) {
			if visited[n] == gen {
				continue
			}
			visited[n] = gen
			d := qd(n)
			if len(sc.res) < ef || d < sc.res[0].Dist {
				admitted++
				sc.cand.push(Neighbor{n, d})
				if filter == nil || filter(n) {
					sc.res.push(Neighbor{n, d})
					if len(sc.res) > ef {
						sc.res.pop()
						pruned++
					}
				}
			} else {
				pruned++
			}
		}
	}
	if st != nil {
		st.Hops += expansions
		st.Candidates += admitted
		st.Pruned += pruned
	}
	// Drain the result heap worst-first into the tail of out: popping a
	// max-heap under less's total order yields exactly the ascending order.
	out := slices.Grow(sc.out[:0], len(sc.res))[:len(sc.res)]
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = sc.res.pop()
	}
	sc.out = out
	return out, true
}

// builder is one insertion worker: the serial path owns one for the life
// of the index, each AddBatch worker owns one for the batch. Everything an
// insertion needs between its distance evaluations lives here, so the
// steady state allocates nothing per node but the target closure.
type builder struct {
	ix *Index
	sc Scratch
	// batch is the lock set of a concurrent AddBatch, nil on the serial
	// path (which runs under ix.mu alone).
	batch      *batchState
	targetDist TargetDist
	// memo caches pair distances for the AddBatch call in progress; nil
	// outside one, and on a lone Add, which measures few pairs twice.
	memo       *pairMemo
	selected   [][]int32  // the inserted node's chosen neighbours, per layer
	reselected []int32    // a full neighbour's re-chosen list
	pruned     []Neighbor // selectHeuristic's backfill pool
	cands      []Neighbor // a full neighbour's list with distances
}

func (ix *Index) newBuilder(batch *batchState) *builder {
	b := &builder{ix: ix, batch: batch}
	if batch != nil {
		b.sc.locks = batch.locks
	}
	if ix.newTargetDist != nil {
		b.targetDist = ix.newTargetDist()
	}
	return b
}

// dist is the pairwise construction distance of neighbour selection, read
// through the call's memo when there is one.
func (b *builder) dist(x, y int32) float32 {
	if b.memo != nil {
		return b.memo.get(x, y)
	}
	return b.ix.dist(x, y)
}

func (b *builder) lock(id int32) {
	if b.sc.locks != nil {
		b.sc.locks[id].Lock()
	}
}

func (b *builder) unlock(id int32) {
	if b.sc.locks != nil {
		b.sc.locks[id].Unlock()
	}
}

// insert links the already-allocated node id into the graph (Algorithm 1).
// On the serial path it runs under ix.mu with no other lock; inside a
// concurrent batch every adjacency read and write goes through the
// per-node locks, one held at a time, so lock order cannot cycle.
func (b *builder) insert(id int32, level int) {
	ix := b.ix
	var qd func(int32) float32
	if b.targetDist != nil {
		qd = b.targetDist(id)
	}
	if qd == nil {
		dist := ix.dist
		qd = func(n int32) float32 { return dist(n, id) }
	}
	var notSelf func(int32) bool
	if b.batch != nil {
		// Another worker that already linked to id on an upper layer can
		// lead this walk back to id; the serial path never meets its own
		// node.
		notSelf = func(n int32) bool { return n != id }
	}
	ep, maxLevel := b.entryPoint()

	// Greedy descent through layers above the new node's level.
	for l := maxLevel; l > level; l-- {
		ep = ix.greedyClosest(&b.sc, ep, qd, l)
	}
	// Beam search + heuristic selection on each layer the node occupies,
	// top down; then link bottom up. A layer's links touch that layer's
	// lists only, so the order changes nothing on the serial path. Inside a
	// concurrent batch it means that by the time another worker can find id
	// on a layer, id is fully linked on every layer below: a walk descending
	// through id never starts a layer from a node with no edges there.
	topLayer := level
	if topLayer > maxLevel {
		topLayer = maxLevel
	}
	for len(b.selected) <= topLayer {
		b.selected = append(b.selected, nil)
	}
	for l := topLayer; l >= 0; l-- {
		candidates, _ := ix.searchLayer(&b.sc, ep, qd, ix.efConstruction, l, notSelf, nil, nil)
		b.selected[l] = b.selectHeuristic(b.selected[l][:0], candidates, ix.m)
		if len(candidates) > 0 {
			ep = candidates[0].ID
		}
	}
	for l, selected := range b.selected[:topLayer+1] {
		maxConn := ix.m
		if l == 0 {
			maxConn = ix.mMax0
		}
		b.lock(id)
		for _, n := range selected {
			b.connect(id, l, n, maxConn)
		}
		b.unlock(id)
		for _, n := range selected {
			b.lock(n)
			b.connect(n, l, id, maxConn)
			b.unlock(n)
		}
	}
	if level > maxLevel {
		b.promote(id, level)
	}
}

// entryPoint reads the (entry, maxLevel) pair an insertion starts from.
func (b *builder) entryPoint() (int32, int) {
	if b.batch != nil {
		b.batch.entryMu.Lock()
		defer b.batch.entryMu.Unlock()
	}
	return b.ix.entry, b.ix.maxLevel
}

// promote makes id the entry point if its level still tops the graph.
func (b *builder) promote(id int32, level int) {
	if b.batch != nil {
		b.batch.entryMu.Lock()
		defer b.batch.entryMu.Unlock()
	}
	if level > b.ix.maxLevel {
		b.ix.maxLevel = level
		b.ix.entry = id
	}
}

// connect adds the edge from → to on layer l. A list already at maxConn is
// re-selected with the heuristic over its members plus to (Algorithm 1's
// shrink step). The caller holds from's lock inside a concurrent batch,
// where an edge another worker already added is left alone.
func (b *builder) connect(from int32, l int, to int32, maxConn int) {
	ix := b.ix
	nbs := ix.neighborsAt(from, l)
	if b.batch != nil && slices.Contains(nbs, to) {
		return
	}
	if len(nbs) < maxConn {
		ix.nodes[from][l] = append(nbs, to)
		return
	}
	cands := b.cands[:0]
	for _, n := range nbs {
		cands = append(cands, Neighbor{n, b.dist(from, n)})
	}
	cands = append(cands, Neighbor{to, b.dist(from, to)})
	slices.SortFunc(cands, Compare)
	b.cands = cands
	b.reselected = b.selectHeuristic(b.reselected[:0], cands, maxConn)
	ix.nodes[from][l] = append(nbs[:0], b.reselected...)
}

// selectHeuristic implements Algorithm 4 (neighbour selection by heuristic)
// appending to dst: scan candidates in ascending distance and keep one only
// if it is closer to the target than to every already-kept neighbour, which
// preserves graph navigability around cluster boundaries. Pruned candidates
// backfill the list if fewer than m survive.
func (b *builder) selectHeuristic(dst []int32, candidates []Neighbor, m int) []int32 {
	if len(candidates) <= m {
		for _, c := range candidates {
			dst = append(dst, c.ID)
		}
		return dst
	}
	pruned := b.pruned[:0]
	for _, c := range candidates {
		if len(dst) >= m {
			break
		}
		ok := true
		for _, s := range dst {
			if b.dist(c.ID, s) < c.Dist {
				ok = false
				break
			}
		}
		if ok {
			dst = append(dst, c.ID)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(dst) >= m {
			break
		}
		dst = append(dst, c.ID)
	}
	b.pruned = pruned
	return dst
}

// Search returns up to k items closest to the query, where qd returns the
// query-to-item distance. ef is the search beam width (clamped to ≥ k).
// filter, when non-nil, restricts results to accepted ids; the graph is
// still traversed through rejected nodes so the filtered region remains
// reachable.
func (ix *Index) Search(qd func(id int32) float32, k, ef int, filter func(int32) bool) []Neighbor {
	res, _, _ := ix.SearchScratch(nil, qd, k, ef, filter, nil)
	return res
}

// SearchScratch is Search with cooperative cancellation, work counters and
// caller-owned working state. cancelled, when non-nil, is polled between
// hops of the greedy descent and every cancelCheckHops expansions of the
// layer-0 beam; a true return abandons the walk, and the second result
// reports whether the search ran to completion (false means it was
// cancelled and the neighbor slice is nil). The stats — hops, candidates
// admitted to the beam, candidates pruned — feed per-query cost accounting
// and cover the work done up to an abort. sc supplies the walk's visited
// set and heaps, so a caller that keeps one (per batch or per worker) pays
// no allocation per query beyond the k results. A nil sc borrows one from
// a package-wide pool for the call, which is what Search does. Results
// never depend on the scratch — it only changes where the bookkeeping
// lives, not which nodes are evaluated. sc must not be shared between
// concurrent searches.
func (ix *Index) SearchScratch(sc *Scratch, qd func(id int32) float32, k, ef int, filter func(int32) bool, cancelled func() bool) ([]Neighbor, bool, SearchStats) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var st SearchStats
	if ix.entry < 0 || k <= 0 {
		return nil, true, st
	}
	if ef < k {
		ef = k
	}
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	ep := ix.entry
	epD := qd(ep)
	for l := ix.maxLevel; l >= 1; l-- {
		for {
			if cancelled != nil && cancelled() {
				return nil, false, st
			}
			improved := false
			for _, n := range ix.neighborsAt(ep, l) {
				if d := qd(n); d < epD {
					ep, epD = n, d
					improved = true
				}
			}
			if !improved {
				break
			}
			st.Hops++
		}
	}
	res, done := ix.searchLayer(sc, ep, qd, ef, 0, filter, cancelled, &st)
	if !done {
		return nil, false, st
	}
	if n := int64(len(res)) - int64(k); n > 0 {
		st.Pruned += n
		res = res[:k]
	}
	return slices.Clone(res), true, st
}

// MaxDegree0 is the layer-0 degree bound, 2M: the most adjacency slots one
// beam expansion on layer 0 reads.
func (ix *Index) MaxDegree0() int { return ix.mMax0 }

// MaxLevel reports the current top layer, for diagnostics.
func (ix *Index) MaxLevel() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.maxLevel
}

// Graph returns a copy of the adjacency lists of layer l, for tests and
// diagnostics.
func (ix *Index) Graph(l int) map[int32][]int32 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[int32][]int32)
	for id, layers := range ix.nodes {
		if l < len(layers) {
			out[int32(id)] = slices.Clone(layers[l])
		}
	}
	return out
}

// Less is the (distance, id) total order every heap and every result list
// uses; ids are unique within a walk, so no two entries tie. A caller that
// ranks items without a walk (vectordb's scan) orders them by it too, so
// the two rankings agree.
func Less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Compare is Less as a three-way comparison, for slices.SortFunc.
func Compare(a, b Neighbor) int {
	if Less(a, b) {
		return -1
	}
	if Less(b, a) {
		return 1
	}
	return 0
}

// minHeap and maxHeap are binary heaps of Neighbors under less, closest and
// farthest on top respectively: the beam's frontier and its bounded result
// set. Typed push/pop, so nothing is boxed on the way in or out.
type (
	minHeap []Neighbor
	maxHeap []Neighbor
)

func (h *minHeap) push(x Neighbor) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !Less(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *minHeap) pop() Neighbor {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && Less(s[c+1], s[c]) {
			c++
		}
		if !Less(s[c], s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

func (h *maxHeap) push(x Neighbor) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !Less(s[p], s[i]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *maxHeap) pop() Neighbor {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && Less(s[c], s[c+1]) {
			c++
		}
		if !Less(s[i], s[c]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}
