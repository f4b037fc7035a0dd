package core

import (
	"fmt"
	"sort"

	"semdisco/internal/vec"
)

// Contribution is one attribute value's share of a relation's match score.
type Contribution struct {
	// Value is the cell text.
	Value string
	// Similarity is cosine(query, value).
	Similarity float32
	// Weight is the value's multiplicity in the relation.
	Weight float32
	// Share is the value's fraction of the relation's total (positive)
	// score mass.
	Share float32
}

// Explanation answers "why did this relation match this query".
type Explanation struct {
	RelationID string
	// Score is the relation's mean-aggregated score, the paper's scoring
	// rule.
	Score float32
	// Top lists the highest-contributing values, best first.
	Top []Contribution
}

// Explain recomputes the value-level similarities between a query and one
// relation and reports the top-n contributing values — the transparency
// hook value-level embedding enables: unlike table-level embeddings, every
// match decomposes exactly into per-cell evidence.
//
// The relation's original value strings are needed for the report; pass
// the same texts EmbedFederation saw (the relation's Values() plus
// caption). Explain re-encodes them through the shared encoder's cache,
// so the cost is n dot products.
func (e *Embedded) Explain(query, relationID string, topN int) (*Explanation, error) {
	relIdx, ok := e.RelIndex(relationID)
	if !ok {
		return nil, fmt.Errorf("core: relation %q not indexed", relationID)
	}
	if topN <= 0 {
		topN = 5
	}
	q := e.Enc.Encode(query)

	idxs := e.PerRel[relIdx]
	contributions := make([]Contribution, 0, len(idxs))
	var scoreSum, positiveMass float32
	for _, vi := range idxs {
		v := &e.Values[vi]
		sim := vec.Dot(q, v.Vec)
		scoreSum += v.Weight * sim
		if sim > 0 {
			positiveMass += v.Weight * sim
		}
		contributions = append(contributions, Contribution{
			Value:      e.texts[v.Text],
			Similarity: sim,
			Weight:     v.Weight,
		})
	}
	for i := range contributions {
		if positiveMass > 0 && contributions[i].Similarity > 0 {
			contributions[i].Share = contributions[i].Weight * contributions[i].Similarity / positiveMass
		}
	}
	sort.SliceStable(contributions, func(i, j int) bool {
		return contributions[i].Weight*contributions[i].Similarity >
			contributions[j].Weight*contributions[j].Similarity
	})
	if len(contributions) > topN {
		contributions = contributions[:topN]
	}
	exp := &Explanation{RelationID: relationID, Top: contributions}
	if tw := e.TotalWeight[relIdx]; tw > 0 {
		exp.Score = scoreSum / tw
	}
	return exp, nil
}
