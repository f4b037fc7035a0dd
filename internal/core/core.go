// Package core implements the paper's contribution: semantic dataset
// discovery over a federation of relations via value-level embeddings, with
// the three search strategies of §4 — Exhaustive Search (ExS), Approximate
// Nearest Neighbors Search (ANNS) and Clustered Targeted Search (CTS) —
// behind one Searcher interface.
package core

import (
	"math"
	"sort"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/segment"
	"semdisco/internal/table"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// Match is one ranked discovery result.
type Match struct {
	RelationID string
	Score      float32
}

// Searcher is the common contract of every discovery method in this repo,
// including the baselines: rank the federation's relations for a keyword
// query and return at most k matches, best first.
type Searcher interface {
	// Name returns the method's short name as used in the paper's tables
	// ("ExS", "ANNS", "CTS", "MDR", …).
	Name() string
	// Search ranks relations for the query.
	Search(query string, k int) ([]Match, error)
}

// valueRef is one embedded attribute value of a relation. Values are
// deduplicated per relation and carry their multiplicity as Weight, so the
// weighted mean equals the paper's average over every attribute occurrence.
type valueRef struct {
	Rel    int32
	Weight float32
	Vec    []float32
}

// Embedded is a federation with every attribute value (plus the caption,
// per the paper's WikiTables consolidation) embedded as a unit vector. It
// is the shared substrate the three searchers are built on; building it is
// the index-time cost, queries never re-embed the data.
type Embedded struct {
	Enc    embed.Encoder
	RelIDs []string
	Values []valueRef
	// PerRel[i] indexes Values belonging to relation i.
	PerRel [][]int32
	// TotalWeight[i] is the summed multiplicity of relation i's values.
	TotalWeight []float32
	// Centroids is the relations × dim matrix of weighted value centroids
	// c_rel = Σ wᵢvᵢ / W, one row per slot; CentroidErr[rel]·‖q‖ bounds how
	// far Dot(q, c_rel) is from ExS's score (relationCentroid). Both
	// are written with a relation's values and, like them, never change.
	Centroids   []float32
	CentroidErr []float64
	// Obs receives the searchers' metrics (search counters, stage latency,
	// index-build phase timings). May be nil: all instrumentation is then a
	// no-op. Set it before building a searcher to capture build phases.
	Obs *obs.Registry
	// Tombs is the segment's tombstone set: relation slots marked here are
	// logically deleted and must not surface from any search path. May be
	// nil (every slot alive) — all checks go through DeadRel, which treats
	// a nil set as empty. Shared across RCU snapshots of a mutable segment
	// so a delete is visible to every snapshot at once.
	Tombs *segment.Tombstones
	// RelOrder[i] is relation i's store-global insertion rank. Segment
	// merges tie-break equal scores on it so a multi-segment store ranks
	// exactly like a monolithic index built in insertion order. Nil means
	// the identity order 0..n-1 (the build-time layout).
	RelOrder []int
	// valueTexts[i] is the original text of Values[i], kept for Explain.
	valueTexts []string
	// relIdx maps relation ID -> index in RelIDs, so lookups by ID are O(1)
	// instead of a linear scan over the federation.
	relIdx map[string]int
}

// DeadRel reports whether relation rel is tombstoned. Nil tombstone sets
// report alive, so indexes without mutation history pay only this check.
func (e *Embedded) DeadRel(rel int) bool {
	return e.Tombs != nil && e.Tombs.Dead(rel)
}

// deadCount returns the number of tombstoned relations.
func (e *Embedded) deadCount() int { return e.Tombs.Count() }

// orderOf returns relation rel's store-global insertion rank.
func (e *Embedded) orderOf(rel int) int {
	if e.RelOrder == nil {
		return rel
	}
	return e.RelOrder[rel]
}

// RelIndex returns the index of a relation ID in RelIDs.
func (e *Embedded) RelIndex(id string) (int, bool) {
	i, ok := e.relIdx[id]
	return i, ok
}

// EmbedFederation embeds every relation's cell values and caption with enc,
// in parallel. Deterministic: output order depends only on input order.
func EmbedFederation(fed *table.Federation, enc embed.Encoder) *Embedded {
	rels := fed.Relations()
	dim := enc.Dim()
	e := &Embedded{
		Enc:         enc,
		RelIDs:      make([]string, len(rels)),
		PerRel:      make([][]int32, len(rels)),
		TotalWeight: make([]float32, len(rels)),
		Centroids:   make([]float32, len(rels)*dim),
		CentroidErr: make([]float64, len(rels)),
		relIdx:      make(map[string]int, len(rels)),
	}
	for i, r := range rels {
		e.RelIDs[i] = r.ID
		e.relIdx[r.ID] = i
	}

	// Encode relations in parallel, each worker also folding its relation's
	// total weight and centroid row; assembly stays in input order.
	texts := make([][]string, len(rels))
	vals := make([][]valueRef, len(rels))
	par.Each(len(rels), par.Workers(0), func(i int) {
		texts[i], vals[i], e.TotalWeight[i] = encodeRelation(rels[i], i, enc)
		e.CentroidErr[i] = relationCentroid(vals[i], e.TotalWeight[i], e.Centroids[i*dim:(i+1)*dim])
	})
	for i := range rels {
		e.PerRel[i] = e.appendValues(texts[i], vals[i])
	}
	return e
}

// appendValues appends one relation's encoded values and returns their
// indices, the relation's PerRel entry.
func (e *Embedded) appendValues(texts []string, vals []valueRef) []int32 {
	var idxs []int32
	for j := range vals {
		idxs = append(idxs, int32(len(e.Values)+j))
	}
	e.Values = append(e.Values, vals...)
	e.valueTexts = append(e.valueTexts, texts...)
	return idxs
}

// encodeRelation embeds relation slot rel's distinct non-empty cell values
// and caption, in sorted text order, each weighted by its multiplicity, and
// returns them with the float32 sum of the weights in that order.
func encodeRelation(r *table.Relation, rel int, enc embed.Encoder) (texts []string, vals []valueRef, total float32) {
	counts := make(map[string]float32)
	for _, v := range r.Values() {
		if v == "" {
			continue
		}
		counts[v]++
	}
	if r.Caption != "" {
		counts[r.Caption]++
	}
	texts = make([]string, 0, len(counts))
	for v := range counts {
		texts = append(texts, v)
	}
	sort.Strings(texts)
	vals = make([]valueRef, len(texts))
	for j, t := range texts {
		vals[j] = valueRef{Rel: int32(rel), Weight: counts[t], Vec: enc.Encode(t)}
		total += counts[t]
	}
	return texts, vals, total
}

// Limits under which no float32 intermediate of either scoring path can
// overflow (every partial sum is at most ‖q‖·Σwᵢ‖vᵢ‖ ≤ 2¹²⁶): a relation over
// maxWeightedNorm gets an infinite error factor, a query at or over
// maxQueryNorm (or not finite) no filter, and both take the value scan.
const (
	maxWeightedNorm = 0x1p63
	maxQueryNorm    = 0x1p63
)

// gamma32 is γ_n = n·u / (1 − n·u) for float32's unit roundoff u = 2⁻²⁴: the
// relative error n successive roundings can compound to.
func gamma32(n int) float64 {
	if nu := float64(n) * 0x1p-24; nu < 1 {
		return nu / (1 - nu)
	}
	return math.Inf(1)
}

// relationCentroid writes the weighted centroid Σ wᵢvᵢ / total of one
// relation's m values (in PerRel order; total is their stored float32 weight
// sum, the divisor ExS uses) into row, accumulating in float64, and returns
// the relation's error factor (derived in DESIGN.md §11; the last term is a
// row entry rounded in the subnormal range):
//
//	A = (γ_{dim+m+2} + γ_{dim+3}) · Σ wᵢ‖vᵢ‖ / total  +  dim·2⁻¹⁴⁹
func relationCentroid(vals []valueRef, total float32, row []float32) float64 {
	if len(vals) == 0 {
		return 0
	}
	acc := make([]float64, len(row))
	var weightedNorm float64
	for i := range vals {
		w := float64(vals[i].Weight)
		var sq float64
		for j, x := range vals[i].Vec {
			acc[j] += w * float64(x)
			sq += float64(x) * float64(x)
		}
		weightedNorm += w * math.Sqrt(sq)
	}
	for j := range row {
		row[j] = float32(acc[j] / float64(total))
	}
	if !(weightedNorm < maxWeightedNorm) {
		return math.Inf(1)
	}
	dim := len(row)
	return (gamma32(dim+len(vals)+2)+gamma32(dim+3))*weightedNorm/float64(total) + float64(dim)*0x1p-149
}

// NewEmptyEmbedded returns an embedded federation with no relations: the
// starting state of a mutable segment. It shares the store's encoder and
// metrics registry and owns a fresh tombstone set.
func NewEmptyEmbedded(enc embed.Encoder, reg *obs.Registry) *Embedded {
	return &Embedded{
		Enc:    enc,
		Obs:    reg,
		Tombs:  segment.NewTombstones(),
		relIdx: make(map[string]int),
	}
}

// cloneForAppend returns an RCU snapshot suitable for appending one more
// relation: slice headers are shared (appends only ever extend, and readers
// of an older snapshot never look past their own lengths), the relIdx map
// is deep-copied because map writes are not snapshot-safe, and the
// tombstone set is shared so deletes reach every snapshot. Callers must
// serialize clone+append+publish externally — in the segment store, under
// its mutation mutex.
func (e *Embedded) cloneForAppend() *Embedded {
	ne := &Embedded{
		Enc:         e.Enc,
		RelIDs:      e.RelIDs,
		Values:      e.Values,
		PerRel:      e.PerRel,
		TotalWeight: e.TotalWeight,
		Centroids:   e.Centroids,
		CentroidErr: e.CentroidErr,
		Obs:         e.Obs,
		Tombs:       e.Tombs,
		RelOrder:    e.RelOrder,
		valueTexts:  e.valueTexts,
		relIdx:      make(map[string]int, len(e.relIdx)+1),
	}
	for k, v := range e.relIdx {
		ne.relIdx[k] = v
	}
	return ne
}

// appendFrom copies relation slot src of other into e, reusing the stored
// value vectors and centroid row (compaction never re-encodes, and the
// values it moves are unchanged). The relation keeps its store-global order
// rank.
func (e *Embedded) appendFrom(other *Embedded, src int) {
	id := other.RelIDs[src]
	dst := len(e.RelIDs)
	e.RelIDs = append(e.RelIDs, id)
	e.relIdx[id] = dst
	e.RelOrder = append(e.RelOrder, other.orderOf(src))
	e.PerRel = append(e.PerRel, nil)
	for _, vi := range other.PerRel[src] {
		v := other.Values[vi]
		idx := int32(len(e.Values))
		e.Values = append(e.Values, valueRef{Rel: int32(dst), Weight: v.Weight, Vec: v.Vec})
		e.valueTexts = append(e.valueTexts, other.valueTexts[vi])
		e.PerRel[dst] = append(e.PerRel[dst], idx)
	}
	e.TotalWeight = append(e.TotalWeight, other.TotalWeight[src])
	dim := e.Enc.Dim()
	e.Centroids = append(e.Centroids, other.Centroids[src*dim:(src+1)*dim]...)
	e.CentroidErr = append(e.CentroidErr, other.CentroidErr[src])
}

// NumValues returns the number of embedded (deduplicated) values.
func (e *Embedded) NumValues() int { return len(e.Values) }

// NumRelations returns the number of relations.
func (e *Embedded) NumRelations() int { return len(e.RelIDs) }

// rankHits folds one query's value hit lists, in order, into weighted sums
// per relation and ranks the relations: the rank step of ANNS and CTS. A
// hit's tag is the value's index: ANNS and CTS tag every point they insert,
// and their collections are never persisted (an engine image rebuilds its
// index), so every tag names a value. The denominator is the relation's
// total value weight: a value the index did not retrieve contributes its
// (near-zero) similarity as zero, so the score is the paper's "average of
// the similarity scores of the vectors of the relation" with the long tail
// truncated at zero — which is also what keeps a relation that surfaced on
// one lucky hit from outranking a relation with broad topical evidence.
// Relations with no hits at all are omitted, and so are tombstoned ones,
// so a deleted relation never ranks even if the index structure still
// holds its vectors.
func (e *Embedded) rankHits(threshold float32, k int, lists ...[]vectordb.Result) []Match {
	ids, totalWeight := e.RelIDs, e.TotalWeight
	sums := make([]float32, len(ids))
	hits := make([]float32, len(ids))
	for _, list := range lists {
		for _, h := range list {
			v := &e.Values[h.Tag]
			if h.Score > 0 {
				sums[v.Rel] += v.Weight * h.Score
			}
			hits[v.Rel]++
		}
	}
	hasDead := e.deadCount() > 0
	scored := make([]vec.Scored, 0, len(ids))
	for i := range ids {
		if hits[i] <= 0 || totalWeight[i] <= 0 {
			continue
		}
		if hasDead && e.Tombs.Dead(i) {
			continue
		}
		scored = append(scored, vec.Scored{ID: i, Score: sums[i] / totalWeight[i]})
	}
	vec.SortScoredDesc(scored)
	out := make([]Match, 0, min(k, len(scored)))
	for _, s := range scored {
		if s.Score < threshold {
			break // list is sorted descending; nothing below passes
		}
		out = append(out, Match{RelationID: ids[s.ID], Score: s.Score})
		if len(out) == k {
			break
		}
	}
	return out
}
