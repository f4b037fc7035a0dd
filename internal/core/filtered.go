package core

import (
	"context"

	"semdisco/internal/obs"
	"semdisco/internal/vectordb"
)

// relSet is the set of relation slots a filtered search may return, one bit
// per slot. The nil set accepts every slot — the unfiltered search; an
// empty, non-nil set accepts none.
type relSet []uint64

func (s relSet) has(rel int) bool {
	if s == nil {
		return true
	}
	w := rel >> 6
	return w < len(s) && s[w]&(1<<(uint(rel)&63)) != 0
}

// allowedSet precomputes the relation slots accepted by allow; nil for a
// nil allow, and empty when allow accepts no live slot. Tombstoned
// relations never enter the set, which makes the dead filter a single check
// shared by every filtered search.
func (e *Embedded) allowedSet(allow func(string) bool) relSet {
	if allow == nil {
		return nil
	}
	hasDead := e.deadCount() > 0
	set := make(relSet, (len(e.RelIDs)+63)/64)
	empty := true
	for i, id := range e.RelIDs {
		if hasDead && e.Tombs.Dead(i) {
			continue
		}
		if allow(id) {
			set[i>>6] |= 1 << (uint(i) & 63)
			empty = false
		}
	}
	if empty {
		return set[:0]
	}
	return set
}

// searchAllowed is the searchBlock of ExS, ANNS and CTS: it resolves allow
// to e's relation slots and runs the method's body over the block. When
// allow accepts no live relation, every query answers an empty ranking
// with no index work.
func (e *Embedded) searchAllowed(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost,
	body func(ctx context.Context, o searchObs, qs [][]float32, ks []int, allowed relSet, costs []*obs.Cost) ([][]Match, error)) ([][]Match, error) {
	allowed := e.allowedSet(allow)
	if allowed != nil && len(allowed) == 0 {
		out := make([][]Match, len(qs))
		for i, k := range ks {
			if k > 0 {
				out[i] = []Match{}
			}
		}
		return out, nil
	}
	return body(ctx, o, qs, ks, allowed, costs)
}

// valueFilter returns the vectordb tag filter of one search over an index
// whose points stand for post's postings: a point is accepted when any of
// its values belongs to a relation in allowed, or, unfiltered, to a live
// relation. It is nil when there is nothing to reject — the common case,
// which keeps churn-free unfiltered searches on the exact pre-mutation
// code path. Pushing the filter into the index means the graph walk still
// routes through rejected points but replaces them in the result beam, so
// a heavily tombstoned segment keeps returning k live points until
// compaction reclaims the space. An accepted point may still hold rejected
// values; rankHits skips them.
func (e *Embedded) valueFilter(post *postings, allowed relSet) vectordb.Filter {
	if allowed == nil && e.deadCount() == 0 {
		return nil
	}
	keep := allowed.has // the set already excludes dead slots
	if allowed == nil {
		keep = func(rel int) bool { return !e.Tombs.Dead(rel) }
	}
	return func(p int32) bool {
		for _, vi := range post.of(p) {
			if keep(int(e.Values[vi].Rel)) {
				return true
			}
		}
		return false
	}
}
