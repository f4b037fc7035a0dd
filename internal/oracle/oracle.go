// Package oracle is the reference the equivalence suites rank against:
// ExS's Algorithm 1 and CTS's exact form written plainly, sharing no code
// with core's search paths (no scan workers, no filter, no bounded
// selection), so comparing core with it never compares a shortcut with
// itself.
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

// CTS answers one query as CTS defines it (DESIGN.md §12), exactly and
// with none of core's CTS machinery: no postings, no arena, no bounded
// selection. It reads the build through s's accessors and the options s was
// built with, and allow (nil for every relation) filters as
// SearchFiltered's does. The medoids are ranked by vec.Dot with q, and the
// first TopClusters (default max(8, 15% of the clusters)) are visited in
// that order. Each visited cluster's points — one per distinct text among
// its values, in order of first occurrence — are ranked by (1 − dot,
// order) between normalized copies of the query and the point's text row,
// over the points with a value in an allowed live relation; the first
// max(Fanout/visited, k) (Fanout default 32·k) are the cluster's hits.
// Hits are folded in visit order, each through its values in value order:
// an allowed relation's value adds weight × score when the score is
// positive. Every relation touched scores its sum over its total weight;
// the k best at or above the threshold are returned, ties by slot.
func CTS(emb *core.Embedded, s *core.CTS, opt core.CTSOptions, q []float32, k int, allow func(string) bool) []core.Match {
	allowed := func(rel int) bool {
		return !emb.DeadRel(rel) && (allow == nil || allow(emb.RelIDs[rel]))
	}
	clusters := make([]int, s.NumClusters())
	dots := make([]float32, len(clusters))
	for c := range clusters {
		clusters[c], dots[c] = c, vec.Dot(q, s.Medoid(c))
	}
	sort.SliceStable(clusters, func(i, j int) bool { return dots[clusters[i]] > dots[clusters[j]] })
	top := opt.TopClusters
	if top == 0 {
		top = max(8, len(clusters)*15/100)
	}
	clusters = clusters[:min(top, len(clusters))]
	fanout := opt.Fanout
	if fanout == 0 {
		fanout = 32 * k
	}
	perCluster := max(fanout/len(clusters), k)

	qn := vec.Normalized(q)
	type hit struct {
		vals  []int // the point's values, in value order
		dist  float32
		order int
	}
	sums := make([]float32, len(emb.RelIDs))
	touched := make([]bool, len(emb.RelIDs))
	for _, c := range clusters {
		var points []hit
		pointOf := map[int32]int{} // text -> index in points
		for vi, v := range emb.Values {
			if s.ClusterOf(vi) != c {
				continue
			}
			p, ok := pointOf[v.Text]
			if !ok {
				p = len(points)
				pointOf[v.Text] = p
				points = append(points, hit{dist: 1 - vec.Dot(qn, vec.Normalized(v.Vec)), order: p})
			}
			points[p].vals = append(points[p].vals, vi)
		}
		var cands []hit
		for _, p := range points {
			for _, vi := range p.vals {
				if allowed(int(emb.Values[vi].Rel)) {
					cands = append(cands, p)
					break
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].order < cands[j].order
		})
		for _, h := range cands[:min(perCluster, len(cands))] {
			score := 1 - h.dist
			for _, vi := range h.vals {
				v := emb.Values[vi]
				if !allowed(int(v.Rel)) {
					continue
				}
				touched[v.Rel] = true
				if score > 0 {
					sums[v.Rel] += v.Weight * score
				}
			}
		}
	}

	type scored struct {
		slot  int
		score float32
	}
	var all []scored
	for rel, ok := range touched {
		if !ok || emb.TotalWeight[rel] <= 0 {
			continue
		}
		if score := sums[rel] / emb.TotalWeight[rel]; score >= opt.Threshold {
			all = append(all, scored{rel, score})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].score > all[j].score })
	out := []core.Match{}
	for _, s := range all[:min(k, len(all))] {
		out = append(out, core.Match{RelationID: emb.RelIDs[s.slot], Score: s.score})
	}
	return out
}
