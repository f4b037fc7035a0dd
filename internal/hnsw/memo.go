package hnsw

import "math/bits"

// pairMemo is a direct-mapped cache of the construction distance dist(a, b)
// for one AddBatch call, keyed by the exact unordered pair. Neighbour
// selection measures the same pairs again and again — a node's list is
// re-selected each time it overflows, and nearby insertions test the same
// already-linked neighbours against each other — so a build computes each
// pair several times over; the memo answers the repeats from one slot read.
//
// A slot holds one pair and its distance; a new pair evicts whatever its
// slot held, so a lookup either returns the value dist returned for that
// exact pair earlier in the call or computes it now. dist is symmetric bit
// for bit (New's contract), so which order the pair was first measured in
// does not matter, and the graph is the one a build without the memo makes.
//
// A memo lives for one AddBatch call and one builder: the distance can
// change between calls (vectordb swaps raw for PQ-code distances when it
// trains its quantizer), and each worker of a concurrent batch owns its
// own, so nothing is shared or locked.
type pairMemo struct {
	dist  func(a, b int32) float32
	slots []memoSlot
	// A pair (lo, hi) of ids below 2^idBits is the key lo<<idBits | hi.
	// Multiplying by an odd constant modulo 2^(2·idBits) permutes the keys;
	// the product's top bits pick the slot and its low `shift` bits, plus
	// one, are the slot's tag, so slot and tag together name exactly one
	// pair, and the zero tag is an empty slot.
	idBits, shift uint
	mask          uint64 // 2^(2·idBits) − 1
	// hits and evictions count lookups answered from a slot and misses that
	// overwrote another pair; tests read them.
	hits, evictions int
}

type memoSlot struct {
	tag uint32
	d   float32
}

// memoMaxBits caps a memo at 2^17 slots of 8 bytes (1 MiB per builder);
// tests shrink it to force collisions.
var memoMaxBits = 17

// memoPairsPerItem sizes a memo to its batch: an insertion measures a few
// dozen distinct pairs, so a batch of count items touches up to ~64·count
// before the cap, and a small batch gets a small memo.
const memoPairsPerItem = 64

// newPairMemo returns the memo of a batch of count insertions into an index
// of n nodes, or nil — measure every pair — when the ids are too wide for
// a 31-bit tag (n > 2^24 at the full size).
func newPairMemo(count, n int, dist func(a, b int32) float32) *pairMemo {
	idBits := uint(bits.Len(uint(n - 1)))
	b := uint(min(max(bits.Len(uint(count*memoPairsPerItem-1)), 8), memoMaxBits))
	b = min(b, 2*idBits)
	if 2*idBits-b > 31 {
		return nil
	}
	return &pairMemo{
		dist: dist, slots: make([]memoSlot, 1<<b),
		idBits: idBits, shift: 2*idBits - b, mask: 1<<(2*idBits) - 1,
	}
}

// get returns dist(a, b), from the memo when the pair is there.
func (m *pairMemo) get(a, b int32) float32 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	h := ((uint64(lo)<<m.idBits | uint64(hi)) * 0x9e3779b97f4a7c15) & m.mask
	s := &m.slots[h>>m.shift]
	tag := uint32(h&(1<<m.shift-1)) + 1
	if s.tag == tag {
		m.hits++
		return s.d
	}
	if s.tag != 0 {
		m.evictions++
	}
	d := m.dist(a, b)
	s.tag, s.d = tag, d
	return d
}
