package hnsw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The on-wire format is little-endian:
//
//	magic u32 | version u32 | M u32 | efConstruction u32 | seed u64
//	entry i32 | maxLevel i32 | numNodes u32
//	per node: numLayers u32, then per layer: degree u32, neighbor i32...
//
// The random level generator's future state is not captured; a restored
// index continues assigning levels from a stream reseeded by the node
// count, which preserves the level distribution (exact bit-compatibility
// of future inserts is not a goal — search correctness is).

const (
	hnswMagic   = 0x484e5357 // "HNSW"
	hnswVersion = 1
)

// WriteTo serializes the graph.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var n int64
	put32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		k, err := w.Write(buf[:])
		n += int64(k)
		return err
	}
	put64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		k, err := w.Write(buf[:])
		n += int64(k)
		return err
	}
	for _, v := range []uint32{hnswMagic, hnswVersion, uint32(ix.m), uint32(ix.efConstruction)} {
		if err := put32(v); err != nil {
			return n, err
		}
	}
	if err := put64(uint64(ix.seed)); err != nil {
		return n, err
	}
	for _, v := range []uint32{uint32(ix.entry), uint32(ix.maxLevel), uint32(len(ix.nodes))} {
		if err := put32(v); err != nil {
			return n, err
		}
	}
	for _, layers := range ix.nodes {
		if err := put32(uint32(len(layers))); err != nil {
			return n, err
		}
		for _, layer := range layers {
			if err := put32(uint32(len(layer))); err != nil {
				return n, err
			}
			for _, nb := range layer {
				if err := put32(uint32(nb)); err != nil {
					return n, err
				}
			}
		}
	}
	return n, nil
}

// Read deserializes a graph written by WriteTo. The caller supplies the
// same construction-time distances the original index used (see New); they
// are needed only for future Add calls.
//
// The blob is untrusted. Nothing is allocated on the word of a count in it:
// the node table and every adjacency list grow as their bytes are actually
// read, so memory stays proportional to the bytes consumed. A list may hold
// up to 4·M neighbours, not the M (2·M on layer 0) a fresh build keeps to:
// concurrent builds of earlier versions wrote lists past that bound, and
// they load and search as they did there.
func Read(r io.Reader, dist func(a, b int32) float32, newTargetDist func() TargetDist) (*Index, error) {
	var rerr error
	var buf [4]byte // outside get32: it escapes into r, once instead of per word
	get32 := func() uint32 {
		if rerr != nil {
			return 0
		}
		if _, rerr = io.ReadFull(r, buf[:]); rerr != nil {
			return 0
		}
		return binary.LittleEndian.Uint32(buf[:])
	}
	magic, version := get32(), get32()
	m, efc := get32(), get32()
	seed := uint64(get32()) | uint64(get32())<<32
	entry, maxLevel, numNodes := int32(get32()), int32(get32()), get32()
	switch {
	case rerr != nil:
		return nil, rerr
	case magic != hnswMagic:
		return nil, errors.New("hnsw: bad magic")
	case version != hnswVersion:
		return nil, fmt.Errorf("hnsw: unsupported version %d", version)
	case m == 0 || m > 1<<16:
		return nil, fmt.Errorf("hnsw: corrupt M=%d", m)
	case numNodes > 1<<30:
		return nil, fmt.Errorf("hnsw: corrupt node count %d", numNodes)
	case numNodes == 0 && (entry != -1 || maxLevel != -1):
		return nil, fmt.Errorf("hnsw: empty graph with entry point %d, level %d", entry, maxLevel)
	case numNodes > 0 && (entry < 0 || uint32(entry) >= numNodes):
		return nil, fmt.Errorf("hnsw: corrupt entry point %d", entry)
	}

	ix := New(Config{M: int(m), EfConstruction: int(efc), Seed: int64(seed)}, dist, newTargetDist)
	ix.entry, ix.maxLevel = entry, int(maxLevel)
	var layer []int32 // reused: a list is copied out at the size actually read
	for id := uint32(0); id < numNodes; id++ {
		layers := get32()
		if rerr != nil {
			return nil, rerr
		}
		if layers < 1 || layers > 64 {
			return nil, fmt.Errorf("hnsw: corrupt layer count %d", layers)
		}
		ix.grow(int(layers) - 1)
		for l := range ix.nodes[id] {
			deg := get32()
			if rerr != nil {
				return nil, rerr
			}
			if deg > 4*m {
				return nil, fmt.Errorf("hnsw: corrupt degree %d on layer %d", deg, l)
			}
			layer = layer[:0]
			for d := uint32(0); d < deg; d++ {
				v := get32()
				if rerr != nil {
					return nil, rerr
				}
				if v >= numNodes {
					return nil, fmt.Errorf("hnsw: neighbor %d out of range", v)
				}
				layer = append(layer, int32(v))
			}
			ix.nodes[id][l] = slices.Clone(layer)
		}
	}
	if numNodes > 0 && ix.maxLevel != len(ix.nodes[entry])-1 {
		return nil, fmt.Errorf("hnsw: max level %d, entry point's level %d", ix.maxLevel, len(ix.nodes[entry])-1)
	}
	// Re-burn the level RNG so future Adds continue a plausible stream.
	for i := uint32(0); i < numNodes; i++ {
		ix.randomLevel()
	}
	return ix, nil
}
