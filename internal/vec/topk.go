package vec

import (
	"cmp"
	"container/heap"
	"slices"
)

// Scored pairs an item identifier with a score. It is the currency of every
// ranked list in the system: similarity search results, cluster rankings and
// final relation rankings all flow through []Scored.
type Scored struct {
	ID    int
	Score float32
}

// TopK maintains the k highest-scoring items seen so far using a min-heap,
// so inserting n items costs O(n log k). The zero value is not usable; call
// NewTopK.
type TopK struct {
	k int
	h scoredMinHeap
}

// NewTopK returns a collector that keeps the k best (highest score) items.
// k must be positive.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("vec: TopK requires k > 0")
	}
	return &TopK{k: k, h: make(scoredMinHeap, 0, k)}
}

// Push offers an item to the collector.
func (t *TopK) Push(id int, score float32) {
	if len(t.h) < t.k {
		heap.Push(&t.h, Scored{ID: id, Score: score})
		return
	}
	if score > t.h[0].Score {
		t.h[0] = Scored{ID: id, Score: score}
		heap.Fix(&t.h, 0)
	}
}

// Len reports how many items are currently held (≤ k).
func (t *TopK) Len() int { return len(t.h) }

// WorstScore returns the lowest score currently retained, or -Inf semantics
// via ok=false when the collector is not yet full.
func (t *TopK) WorstScore() (score float32, full bool) {
	if len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Score, true
}

// Sorted drains the collector and returns the items ordered best-first.
// Ties are broken by ascending ID so results are deterministic.
func (t *TopK) Sorted() []Scored {
	out := make([]Scored, len(t.h))
	copy(out, t.h)
	SortScoredDesc(out)
	t.h = t.h[:0]
	return out
}

// SortScoredDesc orders s by descending score, breaking ties by ascending ID.
func SortScoredDesc(s []Scored) {
	slices.SortFunc(s, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// TopKDesc returns the k best entries of scores — descending score, ties
// broken by ascending index — without sorting the whole slice. The returned
// prefix is bit-identical to building one Scored per index, running
// SortScoredDesc over all of them, and truncating to k: the selection heap
// orders on the full (score, ID) comparator, so tie handling matches the
// full sort exactly. TopK is NOT a substitute here: its heap compares scores
// only and never replaces on equality, so under ties it can retain a
// different (higher-ID) element than the sort would.
//
// Cost is O(n log k) against the full sort's O(n log n); for the rank stage
// of an exhaustive scan with small k this removes the dominant superlinear
// term.
func TopKDesc(scores []float32, k int) []Scored {
	n := len(scores)
	if k <= 0 || n == 0 {
		return nil
	}
	if k >= n {
		out := make([]Scored, n)
		for i, s := range scores {
			out[i] = Scored{ID: i, Score: s}
		}
		SortScoredDesc(out)
		return out
	}
	// Push, inlined by hand: a dense row pays one comparison per entry,
	// not a call.
	d := DescTop{k: k, h: make([]Scored, 0, k)}
	for i, s := range scores {
		e := Scored{ID: i, Score: s}
		if len(d.h) < k {
			d.up(e)
		} else if !sortsAfter(e, d.h[0]) {
			d.replaceRoot(e)
		}
	}
	return d.Sorted()
}

// DescTop selects, among the entries pushed, the k first of SortScoredDesc
// order: descending score, ties broken by ascending ID. Its heap orders on
// that full comparator, so when IDs are distinct the order is total and the
// selected set is exactly the prefix a full sort would give. It is the
// selection under TopKDesc, for callers whose candidates are not one dense
// row. The zero value selects nothing; Reset arms it.
type DescTop struct {
	k int
	h []Scored
}

// Reset empties d and arms it to keep the k first entries, reusing its
// buffer.
func (d *DescTop) Reset(k int) {
	d.k = k
	d.h = d.h[:0]
}

// sortsAfter reports whether a would appear after b in SortScoredDesc
// order. The heap keeps its last-sorting entry at the root.
func sortsAfter(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// Push offers e. Once k entries are held, an entry that sorts after the
// root is rejected with one comparison.
func (d *DescTop) Push(e Scored) {
	if len(d.h) < d.k {
		d.up(e)
		return
	}
	if d.k > 0 && !sortsAfter(e, d.h[0]) {
		d.replaceRoot(e)
	}
}

// up appends e to the heap and sifts it up.
func (d *DescTop) up(e Scored) {
	h := append(d.h, e)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !sortsAfter(h[j], h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
	d.h = h
}

// replaceRoot puts e at the root of the full heap and sifts it down.
func (d *DescTop) replaceRoot(e Scored) {
	h, k := d.h, len(d.h)
	h[0] = e
	for j := 0; ; {
		l, r := 2*j+1, 2*j+2
		m := j
		if l < k && sortsAfter(h[l], h[m]) {
			m = l
		}
		if r < k && sortsAfter(h[r], h[m]) {
			m = r
		}
		if m == j {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
}

// Sorted sorts the held entries best first, in place, and returns them.
// The slice is d's buffer: it is valid until the next Reset.
func (d *DescTop) Sorted() []Scored {
	SortScoredDesc(d.h)
	return d.h
}

type scoredMinHeap []Scored

func (h scoredMinHeap) Len() int            { return len(h) }
func (h scoredMinHeap) Less(i, j int) bool  { return h[i].Score < h[j].Score }
func (h scoredMinHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *scoredMinHeap) Push(x interface{}) { *h = append(*h, x.(Scored)) }
func (h *scoredMinHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Neighbor is one entry of a nearest-neighbour list: an index into the
// scanned row and the distance found there.
type Neighbor struct {
	ID   int32
	Dist float32
}

// NearestK returns the k smallest entries of dists — ascending distance,
// ties broken by ascending index — skipping index skip (pass -1 to keep
// every entry). The result equals sorting all (dist, index) pairs and
// truncating to k, which is what its callers used to do; it is appended to
// buf[:0], so a buffer of capacity k makes a scan allocation-free. A NaN
// distance has no place in that order, here as under the sort: rows are
// expected to be NaN-free.
//
// The k survivors are held sorted and a candidate is placed by insertion:
// after the first few entries of a row almost every candidate fails the one
// comparison against the current k-th distance, so a row costs O(n) with k
// only in the rare insertions. Indices arrive in ascending order, so a
// candidate that ties with a survivor sorts after it and a strict < is the
// whole tie-break.
func NearestK(dists []float32, k, skip int, buf []Neighbor) []Neighbor {
	buf = buf[:0]
	if k <= 0 {
		return buf
	}
	for j, d := range dists {
		if j != skip && (len(buf) < k || d < buf[k-1].Dist) {
			buf = placeNearest(buf, k, int32(j), d)
		}
	}
	return buf
}

// placeNearest inserts (id, d) into the ascending list l of capacity k,
// which the caller has found it belongs in: a list short of k grows, a full
// one loses its last entry. A candidate that ties a survivor goes after it.
func placeNearest(l []Neighbor, k int, id int32, d float32) []Neighbor {
	if len(l) < k {
		l = append(l, Neighbor{})
	}
	p := len(l) - 1
	for ; p > 0 && d < l[p-1].Dist; p-- {
		l[p] = l[p-1]
	}
	l[p] = Neighbor{ID: id, Dist: d}
	return l
}
