package core

import (
	"fmt"

	"semdisco/internal/table"
)

// AddRelation embeds one more relation into the federation and returns its
// internal index. The relation's ID must be new.
//
// This is the write path of the segment store's mutable segment: the
// relation's texts new to the segment's vocabulary are encoded, its values
// appended, nothing else — no HNSW
// insert, no cluster assignment, no index maintenance of any kind. The
// historical per-method AddRelation implementations (graft into the ANNS
// graph, nearest-medoid assignment for CTS) are gone: new relations land in
// the mutable segment, are found by its exhaustive scan at full ExS
// quality, and enter real index structures only when the segment is sealed
// and built in the background — so incremental adds no longer degrade ANNS
// recall or CTS cluster assignment quality.
func (e *Embedded) AddRelation(r *table.Relation) (int, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if _, dup := e.relIdx[r.ID]; dup {
		return 0, fmt.Errorf("core: relation %q already indexed", r.ID)
	}
	relIdx := len(e.RelIDs)
	e.RelIDs = append(e.RelIDs, r.ID)
	if e.relIdx == nil {
		e.relIdx = make(map[string]int)
	}
	e.relIdx[r.ID] = relIdx

	texts, weights, total := countRelation(r)
	firstValue, firstText := len(e.Values), len(e.texts)
	e.PerRel = append(e.PerRel, e.appendValues(relIdx, texts, weights))
	for t := firstText; t < len(e.texts); t++ {
		e.rows[t] = e.Enc.Encode(e.texts[t])
	}
	e.linkRows(firstValue)
	e.TotalWeight = append(e.TotalWeight, total)
	row := make([]uint16, e.Enc.Dim())
	e.CentroidErr = append(e.CentroidErr, relationCentroid(e.relValues(relIdx), total, row, nil))
	e.Centroids = append(e.Centroids, row...)
	return relIdx, nil
}
