// Package core implements the paper's contribution: semantic dataset
// discovery over a federation of relations via value-level embeddings, with
// the three search strategies of §4 — Exhaustive Search (ExS), Approximate
// Nearest Neighbors Search (ANNS) and Clustered Targeted Search (CTS) —
// behind one Searcher interface.
package core

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

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
// Text is the value's vocabulary entry, and Vec is that entry's row: every
// value with the same text in a segment shares one row.
type valueRef struct {
	Rel    int32
	Weight float32
	Text   int32
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
	// c_rel = Σ wᵢvᵢ / W in binary16 bits, one row per slot; CentroidErr[rel]·‖q‖
	// bounds how far vec.DotHalf's score for the row is from ExS's score
	// (relationCentroid). Both are written with a relation's values and,
	// like them, never change.
	Centroids   []uint16
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
	// texts and rows are the segment's vocabulary: its distinct value texts
	// in first-seen order, with one encoded row each. Both are append-only,
	// like Values.
	texts []string
	rows  [][]float32
	// textIdx maps a text to its vocabulary id. Only the writer reads or
	// writes it (intern), so RCU snapshots share it.
	textIdx map[string]int32
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
// encoding each distinct text once, in parallel. Deterministic: output
// order depends only on input order, and Encode is a pure function, so
// every row is the one a per-value encode would give.
func EmbedFederation(fed *table.Federation, enc embed.Encoder) *Embedded {
	rels := fed.Relations()
	dim := enc.Dim()
	e := &Embedded{
		Enc:         enc,
		RelIDs:      make([]string, len(rels)),
		PerRel:      make([][]int32, len(rels)),
		TotalWeight: make([]float32, len(rels)),
		Centroids:   make([]uint16, len(rels)*dim),
		CentroidErr: make([]float64, len(rels)),
		relIdx:      make(map[string]int, len(rels)),
	}
	for i, r := range rels {
		e.RelIDs[i] = r.ID
		e.relIdx[r.ID] = i
	}
	workers := par.Workers(0)

	// 1. Count each relation's texts, in parallel.
	texts := make([][]string, len(rels))
	weights := make([][]float32, len(rels))
	par.Each(len(rels), workers, func(i int) {
		texts[i], weights[i], e.TotalWeight[i] = countRelation(rels[i])
	})
	// 2. Intern them serially, in relation order: the vocabulary and the
	// values come out in the order the inputs fix.
	n := 0
	for i := range rels {
		n += len(texts[i])
	}
	e.Values = make([]valueRef, 0, n)
	for i := range rels {
		e.PerRel[i] = e.appendValues(i, texts[i], weights[i])
	}
	// 3. Encode each distinct text once, in parallel.
	par.Each(len(e.texts), workers, func(t int) {
		e.rows[t] = enc.Encode(e.texts[t])
	})
	e.linkRows(0)
	// 4. Fold the centroids, in parallel, each worker into one accumulator.
	// A relation's values are contiguous.
	par.For(len(rels), workers, func(lo, hi int) {
		acc := make([]float64, dim)
		for i := lo; i < hi; i++ {
			e.CentroidErr[i] = relationCentroid(e.relValues(i), e.TotalWeight[i], e.Centroids[i*dim:(i+1)*dim], acc)
		}
	})
	return e
}

// countRelation returns relation r's distinct non-empty cell values and
// caption in sorted text order, each with its multiplicity, and the float32
// sum of the weights in that order.
func countRelation(r *table.Relation) (texts []string, weights []float32, total float32) {
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
	weights = make([]float32, len(texts))
	for j, t := range texts {
		weights[j] = counts[t]
		total += weights[j]
	}
	return texts, weights, total
}

// appendValues interns relation slot rel's texts and appends one value per
// text, returning their indices, the relation's PerRel entry. A text new to
// the vocabulary gets a nil row: the caller encodes it and then links the
// values to their rows (linkRows).
func (e *Embedded) appendValues(rel int, texts []string, weights []float32) []int32 {
	idxs := make([]int32, len(texts))
	for j, t := range texts {
		idxs[j] = int32(len(e.Values))
		id, _ := e.intern(t)
		e.Values = append(e.Values, valueRef{Rel: int32(rel), Weight: weights[j], Text: id})
	}
	return idxs
}

// linkRows points Values[from:] at their vocabulary rows.
func (e *Embedded) linkRows(from int) {
	for i := from; i < len(e.Values); i++ {
		e.Values[i].Vec = e.rows[e.Values[i].Text]
	}
}

// intern returns text's vocabulary id, appending the text with a nil row
// when it is new (added). The caller fills a new row before any reader can
// see it: rows past a published snapshot's length are the writer's alone.
func (e *Embedded) intern(text string) (id int32, added bool) {
	if e.textIdx == nil {
		e.textIdx = make(map[string]int32)
	}
	if id, ok := e.textIdx[text]; ok {
		return id, false
	}
	id = int32(len(e.texts))
	e.texts = append(e.texts, text)
	e.rows = append(e.rows, nil)
	e.textIdx[text] = id
	return id, true
}

// relValues returns relation rel's values when they are contiguous in
// Values, as every path that appends a relation lays them out.
func (e *Embedded) relValues(rel int) []valueRef {
	idxs := e.PerRel[rel]
	if len(idxs) == 0 {
		return nil
	}
	return e.Values[idxs[0] : int(idxs[0])+len(idxs)]
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

// relationCentroid writes the weighted centroid ĉ = Σ wᵢvᵢ / total of one
// relation's m values (in PerRel order; total is their stored float32
// weight sum, the divisor ExS uses) into row as binary16 h, accumulating in
// float64 and rounding once, and returns the relation's error factor
// (derived in DESIGN.md §11):
//
//	A = (γ_{dim+m+2} + γ_2) · Σ wᵢ‖vᵢ‖ / total  +  ‖h − ĉ‖  +  γ_dim · ‖h‖
//
// with both norms of the row taken in float64 as it is written. A relation
// whose centroid has an entry past binary16's range, or whose weighted norm
// is past maxWeightedNorm, gets A = +Inf and a zero row: its score is
// finite, it is always verified, and in the top k it turns the filter off.
// acc is the caller's accumulator of len(row) floats, so a fold worker
// reuses one across its relations; nil allocates one.
func relationCentroid(vals []valueRef, total float32, row []uint16, acc []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if acc == nil {
		acc = make([]float64, len(row))
	}
	clear(acc)
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
	if !(weightedNorm < maxWeightedNorm) {
		clear(row)
		return math.Inf(1)
	}
	var errSq, halfSq float64
	for j := range row {
		c := acc[j] / float64(total)
		if !(math.Abs(c) <= vec.MaxHalf) {
			clear(row)
			return math.Inf(1)
		}
		row[j] = vec.ToHalf(c)
		h := float64(vec.HalfToFloat32(row[j]))
		errSq += (h - c) * (h - c)
		halfSq += h * h
	}
	dim := len(row)
	return (gamma32(dim+len(vals)+2)+gamma32(2))*weightedNorm/float64(total) + math.Sqrt(errSq) + gamma32(dim)*math.Sqrt(halfSq)
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
// is deep-copied because map writes are not snapshot-safe, the intern map
// is shared because no reader touches it, and the tombstone set is shared
// so deletes reach every snapshot. Callers must
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
		texts:       e.texts,
		rows:        e.rows,
		textIdx:     e.textIdx,
		relIdx:      make(map[string]int, len(e.relIdx)+1),
	}
	for k, v := range e.relIdx {
		ne.relIdx[k] = v
	}
	return ne
}

// reserve sizes an empty e for rels relations holding values values over
// at most texts distinct texts, so the appendFrom calls that fill it
// append without reallocating or rehashing.
func (e *Embedded) reserve(rels, values, texts int) {
	e.RelIDs = slices.Grow(e.RelIDs, rels)
	e.RelOrder = slices.Grow(e.RelOrder, rels)
	e.PerRel = slices.Grow(e.PerRel, rels)
	e.TotalWeight = slices.Grow(e.TotalWeight, rels)
	e.Centroids = slices.Grow(e.Centroids, rels*e.Enc.Dim())
	e.CentroidErr = slices.Grow(e.CentroidErr, rels)
	e.Values = slices.Grow(e.Values, values)
	e.texts = slices.Grow(e.texts, texts)
	e.rows = slices.Grow(e.rows, texts)
	e.relIdx = make(map[string]int, rels)
	e.textIdx = make(map[string]int32, texts)
}

// appendFrom copies relation slot src of other into e, re-interning its
// texts into e's vocabulary and reusing other's rows and centroid row
// (compaction never re-encodes, and the values it moves are unchanged).
// The relation keeps its store-global order rank.
func (e *Embedded) appendFrom(other *Embedded, src int) {
	id := other.RelIDs[src]
	dst := len(e.RelIDs)
	e.RelIDs = append(e.RelIDs, id)
	e.relIdx[id] = dst
	e.RelOrder = append(e.RelOrder, other.orderOf(src))
	idxs := make([]int32, len(other.PerRel[src]))
	for j, vi := range other.PerRel[src] {
		v := other.Values[vi]
		t, added := e.intern(other.texts[v.Text])
		if added {
			e.rows[t] = v.Vec
		}
		idxs[j] = int32(len(e.Values))
		e.Values = append(e.Values, valueRef{Rel: int32(dst), Weight: v.Weight, Text: t, Vec: e.rows[t]})
	}
	e.PerRel = append(e.PerRel, idxs)
	e.TotalWeight = append(e.TotalWeight, other.TotalWeight[src])
	dim := e.Enc.Dim()
	e.Centroids = append(e.Centroids, other.Centroids[src*dim:(src+1)*dim]...)
	e.CentroidErr = append(e.CentroidErr, other.CentroidErr[src])
}

// NumValues returns the number of embedded (deduplicated) values.
func (e *Embedded) NumValues() int { return len(e.Values) }

// NumTexts returns the number of vocabulary rows: the distinct value texts.
func (e *Embedded) NumTexts() int { return len(e.texts) }

// NumRelations returns the number of relations.
func (e *Embedded) NumRelations() int { return len(e.RelIDs) }

// rankScratch is one rank worker's fold state. sums and seen are indexed
// by relation slot and are all zero (false) between folds: a fold records
// each slot it touches in touched and resets only those, so a query costs
// in proportion to its hits, not to the segment's relations. The rows grow
// to the largest segment ranked with them.
type rankScratch struct {
	sums    []float32
	seen    []bool
	touched []int32
	top     vec.DescTop
}

// rankPool serves the rank workers' scratch: a worker borrows one for its
// share of a block, so no two live folds share one and a steady query load
// allocates none.
var rankPool = sync.Pool{New: func() any { return new(rankScratch) }}

// rankBlock ranks each query of a block whose k is positive, lists(i)
// being query i's hit lists, split over GOMAXPROCS workers that each fold
// with one pooled rankScratch; rows for k ≤ 0 stay nil. A block of one
// ranks on the calling goroutine.
func (e *Embedded) rankBlock(post *postings, allowed relSet, threshold float32, ks []int, lists func(i int) [][]vectordb.Result) [][]Match {
	out := make([][]Match, len(ks))
	par.For(len(ks), runtime.GOMAXPROCS(0), func(lo, hi int) {
		rs := rankPool.Get().(*rankScratch)
		for i := lo; i < hi; i++ {
			if ks[i] > 0 {
				out[i] = e.rankHits(rs, post, allowed, threshold, ks[i], lists(i))
			}
		}
		// Not deferred: a fold that panics leaves its scratch dirty, and
		// dropping it keeps the pool's rows zero.
		rankPool.Put(rs)
	})
	return out
}

// rankHits folds one query's hit lists, in order, into weighted sums per
// relation and ranks the relations: the rank step of ANNS and CTS. A hit's
// tag is an index point, and each hit expands through its posting in value
// order, skipping values outside allowed; ANNS and CTS tag every point
// they index, and their indexes are never persisted (an engine image
// rebuilds its index), so every tag names a posting. The denominator is the
// relation's total value weight: a value the index did not retrieve
// contributes its (near-zero) similarity as zero, so the score is the
// paper's "average of the similarity scores of the vectors of the
// relation" with the long tail truncated at zero — which is also what
// keeps a relation that surfaced on one lucky hit from outranking a
// relation with broad topical evidence. Relations with no hits at all are
// omitted, and so are tombstoned ones, so a deleted relation never ranks
// even if the index structure still holds its vectors.
//
// Only the touched relations are scored, and the k best at or above
// threshold are selected by rs's heap in (score descending, slot
// ascending) order: the order, and the rows, a full sort of every scored
// relation gives. rs is left zeroed.
func (e *Embedded) rankHits(rs *rankScratch, post *postings, allowed relSet, threshold float32, k int, lists [][]vectordb.Result) []Match {
	if n := len(e.RelIDs); len(rs.sums) < n {
		rs.sums, rs.seen = make([]float32, n), make([]bool, n)
	}
	sums, seen, touched := rs.sums, rs.seen, rs.touched[:0]
	for _, list := range lists {
		for _, h := range list {
			for _, vi := range post.of(h.Tag) {
				v := &e.Values[vi]
				if !allowed.has(int(v.Rel)) {
					continue
				}
				if !seen[v.Rel] {
					seen[v.Rel] = true
					touched = append(touched, v.Rel)
				}
				if h.Score > 0 {
					sums[v.Rel] += v.Weight * h.Score
				}
			}
		}
	}
	hasDead := e.deadCount() > 0
	rs.top.Reset(k)
	for _, r := range touched {
		sum := sums[r]
		sums[r], seen[r] = 0, false
		w := e.TotalWeight[r]
		if w <= 0 || hasDead && e.Tombs.Dead(int(r)) {
			continue
		}
		if score := sum / w; score >= threshold {
			rs.top.Push(vec.Scored{ID: int(r), Score: score})
		}
	}
	rs.touched = touched
	top := rs.top.Sorted()
	out := make([]Match, len(top))
	for i, s := range top {
		out[i] = Match{RelationID: e.RelIDs[s.ID], Score: s.Score}
	}
	return out
}
