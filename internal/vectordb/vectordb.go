// Package vectordb is an embeddable vector store: a collection of vectors,
// each carrying one int32 tag, under an HNSW index, with optional
// Product-Quantization compression, tag-filtered search and binary
// persistence.
//
// It plays the role Qdrant plays in the paper's experimental setup — the
// paper uses Qdrant strictly as "store embeddings with metadata, index with
// HNSW, search by cosine similarity". The only metadata its callers keep per
// point is one integer (the index of the value or column the vector
// embeds), so that is what a point carries.
package vectordb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"semdisco/internal/hnsw"
	"semdisco/internal/pq"
)

// image is the gob envelope of a saved collection. Version 2 holds one
// collection and its tags. Version 1, written when this package kept a
// database of named collections with string payloads, holds a map that must
// name exactly one collection.
type image struct {
	Version     int
	Collection  *persistedCollection            // version 2
	Collections map[string]*persistedCollection // version 1
}

// persistedCollection is the gob image of a collection. Live points only;
// tombstones are compacted away. GraphBlob carries the serialized HNSW
// graph; it is only written when no tombstones were compacted (compaction
// renumbers slots) and every row is linked. Without it the loaded rows are
// left pending, and the graph is linked in slot order from the same seed
// (deterministically at Workers ≤ 1) when something first reads it.
type persistedCollection struct {
	Cfg       persistedConfig
	IDs       []uint64
	Vectors   [][]float32
	Codes     [][]byte
	Tags      []int32             // version 2
	Payloads  []map[string]string // version 1
	PQBlob    []byte
	GraphBlob []byte
	NextID    uint64
}

// persistedConfig is the gob image of a CollectionConfig. Metric is the
// saved similarity code: 0 is cosine, the only metric; images written while
// the package also offered L2 (1) and inner product (2) may carry another
// code, and such an image is rejected.
type persistedConfig struct {
	Dim, M, EfConstruction, EfSearch, Workers int
	Seed                                      int64
	PQ                                        *PQConfig
	Metric                                    uint8
}

// Save writes the collection's live points, quantizer and graph to w,
// linking pending rows first.
func (c *Collection) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(image{Version: 2, Collection: c.persist()})
}

// Load reads a collection written by Save. A version-1 image loads too when
// each point's payload is empty (tag 0) or holds exactly one decimal int32,
// which becomes the tag. The image is untrusted: one that contradicts
// itself is an error, never a panic.
func Load(r io.Reader) (*Collection, error) {
	var img image
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("vectordb: decode: %w", err)
	}
	var p *persistedCollection
	switch img.Version {
	case 1:
		if len(img.Collections) != 1 {
			return nil, fmt.Errorf("vectordb: version-1 image holds %d collections, want 1", len(img.Collections))
		}
		for _, pc := range img.Collections {
			p = pc
		}
		if p != nil {
			if err := p.tagsFromPayloads(); err != nil {
				return nil, err
			}
		}
	case 2:
		p = img.Collection
	default:
		return nil, fmt.Errorf("vectordb: unsupported version %d", img.Version)
	}
	if p == nil {
		return nil, errors.New("vectordb: image holds no collection")
	}
	return restoreCollection(p)
}

// tagsFromPayloads turns a version-1 image's payloads into tags.
func (p *persistedCollection) tagsFromPayloads() error {
	if len(p.Payloads) != len(p.IDs) {
		return fmt.Errorf("vectordb: %d payloads for %d points", len(p.Payloads), len(p.IDs))
	}
	p.Tags = make([]int32, len(p.Payloads))
	for i, pl := range p.Payloads {
		if len(pl) > 1 {
			return fmt.Errorf("vectordb: point %d: payload has %d fields, want at most 1", i, len(pl))
		}
		for _, v := range pl {
			tag, err := strconv.ParseInt(v, 10, 32)
			if err != nil {
				return fmt.Errorf("vectordb: point %d: payload %q is not an int32", i, v)
			}
			p.Tags[i] = int32(tag)
		}
	}
	p.Payloads = nil
	return nil
}

func (c *Collection) persist() *persistedCollection {
	c.link()
	c.mu.RLock()
	defer c.mu.RUnlock()
	cfg := c.cfg
	p := &persistedCollection{NextID: c.nextID, Cfg: persistedConfig{
		Dim: cfg.Dim, M: cfg.M, EfConstruction: cfg.EfConstruction, EfSearch: cfg.EfSearch,
		Workers: cfg.Workers, Seed: cfg.Seed, PQ: cfg.PQ,
	}}
	if c.quantizer != nil {
		var buf bytes.Buffer
		if _, err := c.quantizer.WriteTo(&buf); err == nil {
			p.PQBlob = buf.Bytes()
		}
	}
	if len(c.deleted) == 0 && c.pendingLocked() == 0 {
		// Slot numbering survives intact, so the graph can be persisted
		// as-is and reloaded without the O(n·efConstruction) rebuild. Rows
		// an insert appended after link() leave the image without a graph.
		var buf bytes.Buffer
		if _, err := c.index.WriteTo(&buf); err == nil {
			p.GraphBlob = buf.Bytes()
		}
	}
	for slot := range c.ids {
		s := int32(slot)
		if _, dead := c.deleted[s]; dead {
			continue
		}
		p.IDs = append(p.IDs, c.ids[slot])
		if c.vectors[slot] != nil {
			p.Vectors = append(p.Vectors, c.vectors[slot])
			p.Codes = append(p.Codes, nil)
		} else {
			p.Vectors = append(p.Vectors, nil)
			p.Codes = append(p.Codes, c.codes[slot])
		}
		p.Tags = append(p.Tags, c.tags[slot])
	}
	return p
}

// restoreCollection validates an image against itself before it indexes a
// row: one vector row and one tag per id, no or one code row per id, each
// slot holding exactly one of a Dim-long vector or an M-byte code the
// quantizer can decode, and ids strictly ascending below NextID.
func restoreCollection(p *persistedCollection) (*Collection, error) {
	pc := p.Cfg
	if pc.Metric != 0 {
		return nil, fmt.Errorf("vectordb: image names metric %d, want 0 (cosine)", pc.Metric)
	}
	c, err := NewCollection(CollectionConfig{
		Dim: pc.Dim, M: pc.M, EfConstruction: pc.EfConstruction, EfSearch: pc.EfSearch,
		Workers: pc.Workers, Seed: pc.Seed, PQ: pc.PQ,
	})
	if err != nil {
		return nil, err
	}
	n := len(p.IDs)
	switch {
	case len(p.Vectors) != n:
		return nil, fmt.Errorf("vectordb: %d vector rows for %d points", len(p.Vectors), n)
	case len(p.Codes) != 0 && len(p.Codes) != n:
		return nil, fmt.Errorf("vectordb: %d code rows for %d points", len(p.Codes), n)
	case len(p.Tags) != n:
		return nil, fmt.Errorf("vectordb: %d tags for %d points", len(p.Tags), n)
	case p.NextID == math.MaxUint64:
		return nil, errors.New("vectordb: id space exhausted")
	}
	if len(p.PQBlob) > 0 {
		q, err := pq.Read(bytes.NewReader(p.PQBlob))
		if err != nil {
			return nil, err
		}
		if q.Dim() != c.cfg.Dim {
			return nil, fmt.Errorf("vectordb: quantizer dim %d, collection %d", q.Dim(), c.cfg.Dim)
		}
		c.quantizer = q
		c.codes = make([][]byte, n)
	}
	for i, id := range p.IDs {
		if id >= p.NextID || (i > 0 && id <= p.IDs[i-1]) {
			return nil, fmt.Errorf("vectordb: id %d of point %d out of order or not below %d", id, i, p.NextID)
		}
		v := p.Vectors[i]
		var code []byte
		if len(p.Codes) > 0 {
			code = p.Codes[i]
		}
		switch {
		case (len(v) == 0) == (len(code) == 0):
			return nil, fmt.Errorf("vectordb: point %d must hold one of a vector or a code", i)
		case len(v) > 0 && len(v) != c.cfg.Dim:
			return nil, fmt.Errorf("vectordb: stored vector %d has dim %d", i, len(v))
		case len(code) > 0 && c.quantizer == nil:
			return nil, fmt.Errorf("vectordb: point %d has a code but there is no quantizer", i)
		case len(code) > 0 && len(code) != c.quantizer.CodeLen():
			return nil, fmt.Errorf("vectordb: code %d has %d bytes, want %d", i, len(code), c.quantizer.CodeLen())
		}
		for _, b := range code {
			if int(b) >= c.quantizer.K() {
				return nil, fmt.Errorf("vectordb: code %d names centroid %d of %d", i, b, c.quantizer.K())
			}
		}
		if len(v) == 0 { // a coded slot, so the quantizer exists
			p.Vectors[i] = nil // a slot is raw iff its vector is non-nil
			c.codes[i] = code
		}
	}
	c.ids = p.IDs
	c.vectors = p.Vectors
	c.tags = p.Tags
	c.nextID = p.NextID
	if len(p.GraphBlob) > 0 {
		// Fast path: restore the serialized graph directly.
		ix, err := hnsw.Read(bytes.NewReader(p.GraphBlob), c.itemDist, c.newTargetDist)
		if err != nil {
			return nil, fmt.Errorf("vectordb: graph restore: %w", err)
		}
		if ix.Len() != n {
			return nil, fmt.Errorf("vectordb: graph has %d nodes, collection %d points", ix.Len(), n)
		}
		c.index = ix
	}
	for slot, id := range c.ids {
		c.byID[id] = int32(slot)
	}
	return c, nil
}
