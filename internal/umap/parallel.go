package umap

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// optimizeParallel is the Workers >= 2 variant of optimize: Hogwild-style
// asynchronous SGD (Recht et al. 2011) over shards of the fuzzy-graph edge
// list. The embedding lives in a flat buffer of float32 bit patterns that
// workers update with compare-and-swap adds, so the run is free of data
// races (and clean under -race) while staying lock-free on the hot path.
// Updates from different shards interleave nondeterministically — the usual
// Hogwild trade: the loss landscape is robust to stale reads because each
// edge touches only a handful of coordinates.
//
// Edge bookkeeping (nextEpoch) is sharded with the edges themselves: a
// shard owns a contiguous edge range across all epochs, so those arrays
// need no synchronization beyond the per-epoch barrier.
func optimizeParallel(emb []float32, rows, cols []int32, weights []float32, cfg Config, a, b float32, workers int) {
	if len(rows) == 0 {
		return
	}
	dim := cfg.NComponents
	n := len(emb) / dim

	flat := newAtomicEmbedding(emb, dim)

	var wmax float32
	for _, w := range weights {
		if w > wmax {
			wmax = w
		}
	}
	epochsPerSample := make([]float32, len(weights))
	for i, w := range weights {
		epochsPerSample[i] = wmax / w
	}
	nextEpoch := make([]float32, len(weights))
	copy(nextEpoch, epochsPerSample)

	alphaStart := cfg.LearningRate

	// Per-shard RNGs: par.For chunks are deterministic in (len, workers),
	// so seeding by the chunk's start index keeps the negative-sample
	// streams reproducible per shard even though interleaving is not.
	rngs := sync.Map{}
	shardRng := func(lo int) *rand.Rand {
		if v, ok := rngs.Load(lo); ok {
			return v.(*rand.Rand)
		}
		r := rand.New(rand.NewSource(cfg.Seed ^ 0x2545f4914f6cdd1d ^ int64(lo)*0x9e3779b9))
		rngs.Store(lo, r)
		return r
	}

	for epoch := 1; epoch <= cfg.NEpochs; epoch++ {
		alpha := alphaStart * (1 - float32(epoch)/float32(cfg.NEpochs))
		if alpha < alphaStart*0.01 {
			alpha = alphaStart * 0.01
		}
		fe := float32(epoch)
		par.For(len(rows), workers, func(lo, hi int) {
			rng := shardRng(lo)
			vi := make([]float32, dim)
			vj := make([]float32, dim)
			for e := lo; e < hi; e++ {
				if nextEpoch[e] > fe {
					continue
				}
				nextEpoch[e] += epochsPerSample[e]
				i, j := rows[e], cols[e]
				flat.snapshot(int(i), vi)
				flat.snapshot(int(j), vj)
				if d2 := vec.L2Sq(vi, vj); d2 > 0 {
					g := attractCoef(d2, a, b)
					for dI := 0; dI < dim; dI++ {
						gd := clip(g * (vi[dI] - vj[dI]))
						flat.add(int(i), dI, alpha*gd)
						flat.add(int(j), dI, -alpha*gd)
					}
					// Refresh the local view so the repulsive updates see the
					// attractive move, as the serial in-place loop does.
					flat.snapshot(int(i), vi)
				}
				for s := 0; s < cfg.NegativeSamples; s++ {
					k := int32(rng.Intn(n))
					if k == i {
						continue
					}
					flat.snapshot(int(k), vj)
					g := repelCoef(vec.L2Sq(vi, vj), a, b)
					for dI := 0; dI < dim; dI++ {
						flat.add(int(i), dI, alpha*clip(g*(vi[dI]-vj[dI])))
					}
				}
			}
		})
	}
	flat.copyOut(emb)
}

// atomicEmbedding stores an n×dim float32 matrix as a flat slice of bit
// patterns manipulated with atomic load / CAS, the standard trick for
// lock-free float accumulation in Go (there is no atomic float32 type).
type atomicEmbedding struct {
	bits []uint32
	dim  int
}

func newAtomicEmbedding(emb []float32, dim int) *atomicEmbedding {
	f := &atomicEmbedding{bits: make([]uint32, len(emb)), dim: dim}
	for i, v := range emb {
		f.bits[i] = math.Float32bits(v)
	}
	return f
}

// snapshot copies row i into dst coordinate-by-coordinate. Individual loads
// are atomic; the row as a whole may mix updates from concurrent workers,
// which is exactly the staleness Hogwild tolerates.
func (f *atomicEmbedding) snapshot(i int, dst []float32) {
	base := i * f.dim
	for d := range dst {
		dst[d] = math.Float32frombits(atomic.LoadUint32(&f.bits[base+d]))
	}
}

// add atomically performs emb[i][d] += delta via CAS retry.
func (f *atomicEmbedding) add(i, d int, delta float32) {
	p := &f.bits[i*f.dim+d]
	for {
		old := atomic.LoadUint32(p)
		nv := math.Float32bits(math.Float32frombits(old) + delta)
		if atomic.CompareAndSwapUint32(p, old, nv) {
			return
		}
	}
}

func (f *atomicEmbedding) copyOut(emb []float32) {
	for i := range emb {
		emb[i] = math.Float32frombits(atomic.LoadUint32(&f.bits[i]))
	}
}
