package hnsw

import (
	"sync"
	"sync/atomic"
)

// AddBatch inserts count new items using up to `workers` goroutines and
// returns the id of the first one (ids are dense, so the batch occupies
// [first, first+count)). The caller must be able to serve distances for
// every id in the batch before calling.
//
// Concurrency model (hnswlib-style fine-grained locking): the whole batch
// runs under the index write lock, so AddBatch excludes Search exactly like
// Add does; *inside* the batch, node allocation and level assignment happen
// up front in one short critical section, then workers insert concurrently,
// serializing only on per-node neighbor-list locks and a small entry-point
// mutex. Levels are drawn from the index RNG before any worker starts, so
// the level sequence is identical to the serial build regardless of worker
// count; the adjacency lists may differ from a serial build when workers >
// 1 because insertion order interleaves (the standard concurrent-HNSW
// relaxation — graph invariants, not graph shape, are preserved).
//
// workers <= 1 runs the exact serial insertion path and is bit-identical to
// calling Add count times.
func (ix *Index) AddBatch(count, workers int) int32 {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	first := int32(len(ix.nodes))
	if count <= 0 {
		return first
	}
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		if ix.serial == nil {
			ix.serial = ix.newBuilder(nil)
		}
		ix.serial.memo = newPairMemo(count, len(ix.nodes)+count, ix.dist)
		defer func() { ix.serial.memo = nil }()
		for i := 0; i < count; i++ {
			ix.addLocked()
		}
		return first
	}

	levels, start, batch := ix.beginBatch(count)
	n := len(ix.nodes)
	var next atomic.Int64
	next.Store(int64(start))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := ix.newBuilder(batch)
			b.memo = newPairMemo(count, n, ix.dist)
			for {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				b.insert(first+int32(i), levels[i])
			}
		}()
	}
	wg.Wait()
	return first
}

// beginBatch is a concurrent batch's critical section, run under ix.mu:
// draw levels in serial RNG order and allocate every node, so the nodes
// slice never grows (and never reallocates) while workers hold references
// into it. It returns the batch's levels, the offset of its first item to
// insert and its lock set.
func (ix *Index) beginBatch(count int) (levels []int, start int, batch *batchState) {
	first := int32(len(ix.nodes))
	levels = make([]int, count)
	for i := range levels {
		levels[i] = ix.randomLevel()
		ix.grow(levels[i])
	}
	if ix.entry < 0 {
		// Seed an empty index with the batch's first node; it has no peers
		// to link to, exactly like the first serial Add.
		ix.entry = first
		ix.maxLevel = levels[0]
		start = 1
	}
	return levels, start, &batchState{locks: make([]sync.Mutex, len(ix.nodes))}
}

// batchState is the lock set shared by one AddBatch call: one mutex per
// node guarding that node's adjacency lists, plus entryMu guarding the
// (entry, maxLevel) pair. Its workers are builders (see builder.insert),
// the same insertion the serial path runs, with these locks switched on.
type batchState struct {
	locks   []sync.Mutex
	entryMu sync.Mutex
}
