package hnsw

import "sync"

// Scratch holds the working state of a beam search — the visited set, both
// heaps and the result buffer — so a caller issuing many searches in a row
// allocates them once instead of per walk. Every walk runs over one: an
// insertion over its builder's, a query over the caller's.
//
// The visited set is a generation-stamped array: slot i is "visited" when
// visited[i] equals the current generation, so resetting between searches is
// a single counter increment rather than an O(n) clear or a fresh map. The
// array is sized to the graph on first use and regrown as the graph grows.
//
// A Scratch is owned by one goroutine at a time; concurrent searches need
// one Scratch each. The zero value is ready to use.
type Scratch struct {
	visited []uint32
	gen     uint32
	cand    minHeap
	res     maxHeap
	out     []Neighbor // the last walk's results, ascending
	// locks and nbBuf are set only on an AddBatch worker's scratch: the
	// batch's per-node locks, and the buffer adjacency lists are copied
	// into under them.
	locks []sync.Mutex
	nbBuf []int32
}

// scratchPool serves the searches that bring no Scratch of their own: a walk
// borrows one and returns it, so no two live walks share one and a steady
// query load allocates none.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// begin readies the scratch for one search over a graph of n nodes and
// returns the generation stamp marking this search's visits.
func (sc *Scratch) begin(n int) uint32 {
	if len(sc.visited) < n {
		// Fresh zeroed array: zero never equals a post-increment generation.
		sc.visited = make([]uint32, n+n/2+8)
	}
	sc.gen++
	if sc.gen == 0 { // wrapped after ~4B searches: clear and restart
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.gen = 1
	}
	sc.cand = sc.cand[:0]
	sc.res = sc.res[:0]
	return sc.gen
}
