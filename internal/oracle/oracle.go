// Package oracle is the reference the ExS equivalence suites rank against:
// Algorithm 1 written plainly, sharing no code with core's search paths (no
// scan workers, no filter, no bounded selection), so comparing core with it
// never compares a shortcut with itself.
package oracle

import (
	"sort"

	"semdisco/internal/core"
	"semdisco/internal/vec"
)

// Rank scores every live relation of emb value by value — the weighted
// similarities summed in float32 in PerRel order, divided by the stored
// total weight, an empty relation scoring 0 — and returns the k best at or
// above threshold h: score descending, ties by ascending slot.
func Rank(emb *core.Embedded, q []float32, k int, h float32) []core.Match {
	type scored struct {
		slot  int
		score float32
	}
	var all []scored
	for rel := range emb.RelIDs {
		if emb.DeadRel(rel) {
			continue
		}
		var score float32
		if idxs := emb.PerRel[rel]; len(idxs) > 0 {
			var sum float32
			for _, vi := range idxs {
				v := emb.Values[vi]
				sum += v.Weight * vec.Dot(q, v.Vec)
			}
			score = sum / emb.TotalWeight[rel]
		}
		all = append(all, scored{rel, score})
	}
	// Slots were appended ascending: a stable sort on score breaks ties by slot.
	sort.SliceStable(all, func(i, j int) bool { return all[i].score > all[j].score })
	out := []core.Match{}
	for _, s := range all {
		if len(out) >= k || s.score < h {
			break
		}
		out = append(out, core.Match{RelationID: emb.RelIDs[s.slot], Score: s.score})
	}
	return out
}
