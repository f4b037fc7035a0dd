package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"semdisco/internal/embed"
)

// embeddedImage is the exported gob shadow of Embedded. Vectors dominate
// the payload; everything else is bookkeeping.
//
// Version 2 stores the vocabulary: Texts and Vecs hold one entry per
// distinct text, and value i is (Rels[i], Weights[i], TextIDs[i]).
// Version 1 stored a text and a vector per value, with no TextIDs; it is
// read by interning each value's text on load.
type embeddedImage struct {
	Version     int
	Dim         int
	RelIDs      []string
	Rels        []int32
	Weights     []float32
	Vecs        [][]float32
	Texts       []string
	TextIDs     []int32
	PerRel      [][]int32
	TotalWeight []float32
}

// Persist writes the embedded federation so it can be restored without
// re-encoding every value (the dominant index-build cost after CTS's
// clustering). Each distinct text and its vector are written once.
func (e *Embedded) Persist(w io.Writer) error {
	img := embeddedImage{
		Version:     2,
		Dim:         e.Enc.Dim(),
		RelIDs:      e.RelIDs,
		Vecs:        e.rows,
		Texts:       e.texts,
		PerRel:      e.PerRel,
		TotalWeight: e.TotalWeight,
		Rels:        make([]int32, len(e.Values)),
		Weights:     make([]float32, len(e.Values)),
		TextIDs:     make([]int32, len(e.Values)),
	}
	for i, v := range e.Values {
		img.Rels[i], img.Weights[i], img.TextIDs[i] = v.Rel, v.Weight, v.Text
	}
	return gob.NewEncoder(w).Encode(img)
}

// RestoreEmbedded reads a Persist image, version 1 or 2. enc must be the
// same encoder configuration that produced the image (dimension is
// validated; content equality is the caller's contract — future queries
// are encoded with enc and compared against the stored vectors).
//
// An image is rejected unless every relation's PerRel list holds exactly
// the values naming that relation, each once: ExS scores a relation
// through PerRel while ANNS and CTS attribute a hit through the value's
// relation, and the two must agree.
func RestoreEmbedded(r io.Reader, enc embed.Encoder) (*Embedded, error) {
	var img embeddedImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("core: restore embedded: %w", err)
	}
	if img.Version != 1 && img.Version != 2 {
		return nil, fmt.Errorf("core: unsupported embedded version %d", img.Version)
	}
	if img.Dim != enc.Dim() {
		return nil, fmt.Errorf("core: stored dim %d, encoder dim %d", img.Dim, enc.Dim())
	}
	n, numRels := len(img.Rels), len(img.RelIDs)
	if len(img.Weights) != n || len(img.PerRel) != numRels || len(img.TotalWeight) != numRels {
		return nil, fmt.Errorf("core: corrupt embedded image")
	}
	e := &Embedded{
		Enc:         enc,
		RelIDs:      img.RelIDs,
		PerRel:      img.PerRel,
		TotalWeight: img.TotalWeight,
		Values:      make([]valueRef, n),
		textIdx:     make(map[string]int32),
		relIdx:      make(map[string]int, numRels),
	}
	for i, id := range img.RelIDs {
		e.relIdx[id] = i
	}
	for i := range img.Vecs {
		if len(img.Vecs[i]) != img.Dim {
			return nil, fmt.Errorf("core: vector %d has dim %d", i, len(img.Vecs[i]))
		}
	}
	if img.Version == 1 {
		if len(img.Vecs) != n || len(img.Texts) != n {
			return nil, fmt.Errorf("core: corrupt embedded image")
		}
		for i, t := range img.Texts {
			id, added := e.intern(t)
			if added {
				e.rows[id] = img.Vecs[i]
			} else if !sameBits(e.rows[id], img.Vecs[i]) {
				return nil, fmt.Errorf("core: value %d: text %q stored with two vectors", i, t)
			}
			e.Values[i].Text = id
		}
	} else {
		if len(img.Vecs) != len(img.Texts) || len(img.TextIDs) != n {
			return nil, fmt.Errorf("core: corrupt embedded image")
		}
		for _, t := range img.Texts {
			if _, added := e.intern(t); !added {
				return nil, fmt.Errorf("core: text %q stored twice", t)
			}
		}
		copy(e.rows, img.Vecs)
		for i, t := range img.TextIDs {
			if t < 0 || int(t) >= len(e.texts) {
				return nil, fmt.Errorf("core: value %d references text %d of %d", i, t, len(e.texts))
			}
			e.Values[i].Text = t
		}
	}
	for i, rel := range img.Rels {
		if rel < 0 || int(rel) >= numRels {
			return nil, fmt.Errorf("core: value %d references relation %d of %d", i, rel, numRels)
		}
		e.Values[i].Rel, e.Values[i].Weight = rel, img.Weights[i]
	}
	e.linkRows(0)
	if err := checkPerRel(e); err != nil {
		return nil, err
	}
	// Centroids are a function of the values, so no image carries them.
	e.Centroids = make([]uint16, numRels*img.Dim)
	e.CentroidErr = make([]float64, numRels)
	var vals []valueRef
	acc := make([]float64, img.Dim)
	for rel, idxs := range img.PerRel {
		vals = vals[:0]
		for _, vi := range idxs {
			vals = append(vals, e.Values[vi])
		}
		e.CentroidErr[rel] = relationCentroid(vals, img.TotalWeight[rel], e.Centroids[rel*img.Dim:(rel+1)*img.Dim], acc)
	}
	return e, nil
}

// checkPerRel requires every value to appear exactly once across the PerRel
// lists, in the list of the relation it names.
func checkPerRel(e *Embedded) error {
	seen := make([]bool, len(e.Values))
	for rel, idxs := range e.PerRel {
		for _, vi := range idxs {
			if vi < 0 || int(vi) >= len(e.Values) {
				return fmt.Errorf("core: relation %d references value %d of %d", rel, vi, len(e.Values))
			}
			if int(e.Values[vi].Rel) != rel {
				return fmt.Errorf("core: relation %d lists value %d of relation %d", rel, vi, e.Values[vi].Rel)
			}
			if seen[vi] {
				return fmt.Errorf("core: relation %d lists value %d twice", rel, vi)
			}
			seen[vi] = true
		}
	}
	for vi, ok := range seen {
		if !ok {
			return fmt.Errorf("core: value %d is in no relation's list", vi)
		}
	}
	return nil
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
