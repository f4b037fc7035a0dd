package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"semdisco/internal/embed"
)

// embeddedImage is the exported gob shadow of Embedded. Vectors dominate
// the payload; everything else is bookkeeping.
type embeddedImage struct {
	Version     int
	Dim         int
	RelIDs      []string
	Rels        []int32
	Weights     []float32
	Vecs        [][]float32
	Texts       []string
	PerRel      [][]int32
	TotalWeight []float32
}

// Persist writes the embedded federation so it can be restored without
// re-encoding every value (the dominant index-build cost after CTS's
// clustering).
func (e *Embedded) Persist(w io.Writer) error {
	img := embeddedImage{
		Version:     1,
		Dim:         e.Enc.Dim(),
		RelIDs:      e.RelIDs,
		PerRel:      e.PerRel,
		TotalWeight: e.TotalWeight,
	}
	for _, v := range e.Values {
		img.Rels = append(img.Rels, v.Rel)
		img.Weights = append(img.Weights, v.Weight)
		img.Vecs = append(img.Vecs, v.Vec)
	}
	img.Texts = e.valueTexts
	return gob.NewEncoder(w).Encode(img)
}

// RestoreEmbedded reads a Persist image. enc must be the same encoder
// configuration that produced the image (dimension is validated; content
// equality is the caller's contract — future queries are encoded with enc
// and compared against the stored vectors).
func RestoreEmbedded(r io.Reader, enc embed.Encoder) (*Embedded, error) {
	var img embeddedImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("core: restore embedded: %w", err)
	}
	if img.Version != 1 {
		return nil, fmt.Errorf("core: unsupported embedded version %d", img.Version)
	}
	if img.Dim != enc.Dim() {
		return nil, fmt.Errorf("core: stored dim %d, encoder dim %d", img.Dim, enc.Dim())
	}
	if len(img.Rels) != len(img.Weights) || len(img.Rels) != len(img.Vecs) {
		return nil, fmt.Errorf("core: corrupt embedded image")
	}
	e := &Embedded{
		Enc:         enc,
		RelIDs:      img.RelIDs,
		PerRel:      img.PerRel,
		TotalWeight: img.TotalWeight,
		relIdx:      make(map[string]int, len(img.RelIDs)),
	}
	for i, id := range img.RelIDs {
		e.relIdx[id] = i
	}
	if len(img.Texts) == len(img.Rels) {
		e.valueTexts = img.Texts
	}
	numRels := int32(len(img.RelIDs))
	for i := range img.Rels {
		if img.Rels[i] < 0 || img.Rels[i] >= numRels {
			return nil, fmt.Errorf("core: value %d references relation %d of %d", i, img.Rels[i], numRels)
		}
		if len(img.Vecs[i]) != img.Dim {
			return nil, fmt.Errorf("core: value %d has dim %d", i, len(img.Vecs[i]))
		}
		e.Values = append(e.Values, valueRef{Rel: img.Rels[i], Weight: img.Weights[i], Vec: img.Vecs[i]})
	}
	// Centroids are a function of the values, so no image carries them.
	if len(img.PerRel) != len(img.RelIDs) || len(img.TotalWeight) != len(img.RelIDs) {
		return nil, fmt.Errorf("core: corrupt embedded image")
	}
	e.Centroids = make([]float32, len(img.RelIDs)*img.Dim)
	e.CentroidErr = make([]float64, len(img.RelIDs))
	for rel, idxs := range img.PerRel {
		vals := make([]valueRef, len(idxs))
		for j, vi := range idxs {
			if vi < 0 || int(vi) >= len(e.Values) {
				return nil, fmt.Errorf("core: relation %d references value %d of %d", rel, vi, len(e.Values))
			}
			vals[j] = e.Values[vi]
		}
		e.CentroidErr[rel] = relationCentroid(vals, img.TotalWeight[rel], e.Centroids[rel*img.Dim:(rel+1)*img.Dim])
	}
	return e, nil
}
