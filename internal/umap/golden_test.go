package umap

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/vec"
)

// goldenFitPoints is the shape of the CTS benchmark's reduction: 3,209
// unit vectors at dim 256, drawn around 40 seeded centres and interleaved
// in index order, so every 4-row tile of the kNN mixes blobs.
func goldenFitPoints() [][]float32 {
	const blobs, n, dim = 40, 3209, 256
	rng := rand.New(rand.NewSource(20261017))
	centers := make([][]float32, blobs)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for d := range centers[c] {
			centers[c][d] = 0.2 * float32(rng.NormFloat64())
		}
	}
	points := make([][]float32, n)
	for i := range points {
		p := make([]float32, dim)
		for d, m := range centers[i%blobs] {
			p[d] = m + 0.3*float32(rng.NormFloat64())
		}
		points[i] = vec.Normalize(p)
	}
	return points
}

// TestFitGolden3209x256 pins the serial fit at the benchmark's shape — the
// exact kNN over many tiles, the 16-dim SGD, 200 epochs — to the FNV-64a
// hash of the layout's bits. The constant was recorded before the kNN
// scored each pair once and before the SGD steps had SSE2 bodies; both
// must reproduce it, and so must the Go bodies under -tags purego.
func TestFitGolden3209x256(t *testing.T) {
	emb := Fit(goldenFitPoints(), Config{Seed: 7, Workers: 1, NEpochs: 200})
	h := fnv.New64a()
	var b [4]byte
	for _, row := range emb {
		for _, x := range row {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	const want = uint64(0x1c62e6a8a4b96c6c)
	if got := h.Sum64(); got != want {
		t.Errorf("layout hash = %#x, want %#x", got, want)
	}
}
