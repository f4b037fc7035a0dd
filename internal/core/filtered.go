package core

import (
	"context"

	"semdisco/internal/obs"
	"semdisco/internal/vectordb"
)

// relSet is the set of relation slots a filtered search may return. The
// nil set accepts every slot — the unfiltered search.
type relSet map[int32]struct{}

func (s relSet) has(rel int) bool {
	if s == nil {
		return true
	}
	_, ok := s[int32(rel)]
	return ok
}

// allowedSet precomputes the relation slots accepted by allow; nil for a
// nil allow. Tombstoned relations never enter the set, which makes the
// dead filter a single check shared by every filtered search.
func (e *Embedded) allowedSet(allow func(string) bool) relSet {
	if allow == nil {
		return nil
	}
	hasDead := e.deadCount() > 0
	set := make(relSet)
	for i, id := range e.RelIDs {
		if hasDead && e.Tombs.Dead(i) {
			continue
		}
		if allow(id) {
			set[int32(i)] = struct{}{}
		}
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

// valueFilter returns the vectordb tag filter of one search: values of
// relations outside allowed are rejected, and so are values of tombstoned
// relations. It is nil when there is nothing to reject — the common case,
// which keeps churn-free unfiltered searches on the exact pre-mutation
// code path. Pushing the filter into the index means the graph walk still
// routes through rejected points but replaces them in the result beam, so
// a heavily tombstoned segment keeps returning k live values until
// compaction reclaims the space.
func (e *Embedded) valueFilter(allowed relSet) vectordb.Filter {
	if allowed == nil && e.deadCount() == 0 {
		return nil
	}
	return func(vi int32) bool {
		rel := int(e.Values[vi].Rel)
		if allowed != nil {
			return allowed.has(rel) // the set already excludes dead slots
		}
		return !e.Tombs.Dead(rel)
	}
}
