package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/vec"
)

// goldenPoints is a fixed 1,200-value corpus: 24 seeded Gaussian blobs of
// 50 unit vectors at dim 64, interleaved in index order, their centres close
// enough that HDBSCAN merges some (19 clusters, not 24) — a layout where a
// perturbed coordinate can move a label.
func goldenPoints() [][]float32 {
	const blobs, per, dim = 24, 50, 64
	rng := rand.New(rand.NewSource(20250117))
	centers := make([][]float32, blobs)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for d := range centers[c] {
			centers[c][d] = 0.15 * float32(rng.NormFloat64())
		}
	}
	points := make([][]float32, blobs*per)
	for i := range points {
		p := make([]float32, dim)
		for d, m := range centers[i%blobs] {
			p[d] = m + 0.35*float32(rng.NormFloat64())
		}
		points[i] = vec.Normalize(p)
	}
	return points
}

// TestCTSBuildGolden pins the serial CTS build — UMAP layout, HDBSCAN
// labels, medoids — to constants. A change to the kernels, the kNN graph or
// the selection code that is meant to be bit-identical must reproduce them;
// one that moves rounding re-records them and reports old and new cluster
// counts with the adjusted Rand index of the two labelings.
func TestCTSBuildGolden(t *testing.T) {
	opt := CTSOptions{ReducedDim: 16, MinClusterSize: 8, SampleCap: 4096, Seed: 7}
	reduced, medoids, clusterOf := partitionValues(goldenPoints(), opt, 1, nil)
	hashInts := func(xs []int) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(int64(x)))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	h := fnv.New64a()
	var b [4]byte
	for _, row := range reduced {
		for _, x := range row {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	const (
		wantClusters  = 19
		wantClusterOf = uint64(0x1ef78abd8f46aaf9)
		wantMedoids   = uint64(0xf9c279ce0c751c09)
		wantReduced   = uint64(0x14033c55f62654c4)
	)
	if got := len(medoids); got != wantClusters {
		t.Errorf("clusters = %d, want %d", got, wantClusters)
	}
	if got := hashInts(clusterOf); got != wantClusterOf {
		t.Errorf("clusterOf hash = %#x, want %#x", got, wantClusterOf)
	}
	if got := hashInts(medoids); got != wantMedoids {
		t.Errorf("medoid hash = %#x, want %#x", got, wantMedoids)
	}
	if got := h.Sum64(); got != wantReduced {
		t.Errorf("reduced-coordinate hash = %#x, want %#x", got, wantReduced)
	}
}
