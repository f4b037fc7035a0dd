// Package umap implements Uniform Manifold Approximation and Projection
// (McInnes, Healy, Melville 2018) for dimensionality reduction, plus a PCA
// reducer used for initialization and for the CTS ablation study.
//
// The implementation follows the reference pipeline: k-nearest-neighbour
// graph (exact for small inputs, HNSW-approximate for large ones — the
// paper likewise precomputes the kNN "to optimize runtime performance"),
// smooth-kNN-distance calibration, fuzzy simplicial set symmetrization, and
// negative-sampling SGD on the cross-entropy layout objective.
package umap

import (
	"math"
	"math/rand"

	"semdisco/internal/hnsw"
	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// Config controls the embedding.
type Config struct {
	// NComponents is the output dimensionality. Defaults to 16, the value
	// the CTS pipeline uses (2 is typical for visualization).
	NComponents int
	// NNeighbors controls the locality of the manifold approximation.
	// Defaults to 15.
	NNeighbors int
	// MinDist is the minimum output-space separation. Defaults to 0.1.
	MinDist float32
	// NEpochs is the number of SGD passes. Defaults to 200 for inputs up to
	// 10k points and 60 beyond.
	NEpochs int
	// LearningRate defaults to 1.0.
	LearningRate float32
	// NegativeSamples per positive edge. Defaults to 5.
	NegativeSamples int
	// Seed makes the embedding deterministic.
	Seed int64
	// ExactKNNThreshold: inputs up to this size use exact O(n²) kNN, larger
	// ones use an HNSW approximation. Defaults to 20000, just below where
	// the exact scan, which scores each pair once, and the HNSW build + n
	// searches cost the same at dim 256 (between 20,600 and 25,400 points).
	ExactKNNThreshold int
	// Workers bounds the kNN graph's parallelism; 0 means 1. The SGD runs
	// serially at every worker count. Up to ExactKNNThreshold points the
	// layout is bit-identical at every Workers for a fixed seed; above it
	// the HNSW the approximate kNN builds concurrently depends on insert
	// order.
	Workers int
}

func (c *Config) fill(n int) {
	if c.NComponents == 0 {
		c.NComponents = 16
	}
	if c.NNeighbors == 0 {
		c.NNeighbors = 15
	}
	if c.MinDist == 0 {
		c.MinDist = 0.1
	}
	if c.NEpochs == 0 {
		if n > 10000 {
			c.NEpochs = 60
		} else {
			c.NEpochs = 200
		}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 1.0
	}
	if c.NegativeSamples == 0 {
		c.NegativeSamples = 5
	}
	if c.ExactKNNThreshold == 0 {
		c.ExactKNNThreshold = 20000
	}
}

// Fit embeds points into cfg.NComponents dimensions.
func Fit(points [][]float32, cfg Config) [][]float32 {
	n := len(points)
	cfg.fill(n)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return [][]float32{make([]float32, cfg.NComponents)}
	}
	k := cfg.NNeighbors
	if k >= n {
		k = n - 1
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	rows, cols, weights := fuzzySimplicialSet(knnGraph(points, k, cfg.ExactKNNThreshold, cfg.Seed, workers))
	// The layout lives in one n·dim buffer for the whole optimization: the
	// SGD reads rows at random, and a flat buffer makes that one address
	// computation instead of a slice-header load per row.
	dim := cfg.NComponents
	emb := randomProjectionInit(points, dim, cfg.Seed)
	a, b := fitAB(1.0, float64(cfg.MinDist))
	optimize(emb, rows, cols, weights, cfg, float32(a), float32(b))
	out := make([][]float32, n)
	for i := range out {
		out[i] = emb[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return out
}

// knnGraph returns, for each point, its k nearest neighbours (self
// excluded) with their Euclidean distances, nearest first. The exact path is
// vec.NearestAll, the same lists at every worker count; in the approximate
// one the query phase shards across workers without changing a row, and
// only the HNSW construction itself depends on insert order when built
// concurrently.
func knnGraph(points [][]float32, k, exactThreshold int, seed int64, workers int) [][]vec.Neighbor {
	n := len(points)
	if n <= exactThreshold {
		// NearestAll selects on the rooted distances, not the squares: the
		// float32 root merges neighbouring squares, and the lower index
		// wins the tie that makes.
		return vec.NearestAll(points, k, workers)
	}
	// Approximate path: build an HNSW over the points.
	ix := hnsw.New(hnsw.Config{M: 16, EfConstruction: 100, Seed: seed}, func(a, b int32) float32 {
		return vec.L2Sq(points[a], points[b])
	}, nil)
	ix.AddBatch(n, workers)
	knn := make([][]vec.Neighbor, n)
	par.For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			self := int32(i)
			res := ix.Search(func(id int32) float32 {
				return vec.L2Sq(points[i], points[id])
			}, k+1, 2*(k+1), func(id int32) bool { return id != self })
			knn[i] = make([]vec.Neighbor, min(len(res), k))
			for t := range knn[i] {
				knn[i][t] = vec.Neighbor{ID: res[t].ID, Dist: float32(math.Sqrt(float64(res[t].Dist)))}
			}
		}
	})
	return knn
}

// fuzzySimplicialSet computes per-point (rho, sigma) by the smooth-kNN-dist
// binary search and returns the symmetrized weighted edge list.
func fuzzySimplicialSet(knn [][]vec.Neighbor) (rows, cols []int32, weights []float32) {
	n := len(knn)
	directed := make([]map[int32]float32, n)
	for i, nbrs := range knn {
		if len(nbrs) == 0 {
			directed[i] = map[int32]float32{}
			continue
		}
		rho := nbrs[0].Dist
		sigma := smoothKNNDist(nbrs, rho)
		m := make(map[int32]float32, len(nbrs))
		for _, nb := range nbrs {
			d := float64(nb.Dist - rho)
			if d < 0 {
				d = 0
			}
			m[nb.ID] = float32(math.Exp(-d / sigma))
		}
		directed[i] = m
	}
	// Symmetrize: w = a + b - ab (probabilistic t-conorm). Iterate in kNN
	// order, not map order, so the edge list — and therefore the SGD
	// sampling sequence — is deterministic.
	seen := make(map[[2]int32]struct{})
	for i, nbrs := range knn {
		for _, nb := range nbrs {
			j := nb.ID
			key := [2]int32{int32(i), j}
			if int32(i) > j {
				key = [2]int32{j, int32(i)}
			}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			wij := directed[i][j]
			wji := directed[j][int32(i)]
			w := wij + wji - wij*wji
			if w <= 0 {
				continue
			}
			rows = append(rows, key[0])
			cols = append(cols, key[1])
			weights = append(weights, w)
		}
	}
	return rows, cols, weights
}

// smoothKNNDist binary-searches sigma so that the effective neighbourhood
// size Σ exp(-(d-rho)/sigma) equals log2(k).
func smoothKNNDist(nbrs []vec.Neighbor, rho float32) float64 {
	target := math.Log2(float64(len(nbrs)))
	lo, hi := 0.0, math.Inf(1)
	sigma := 1.0
	for iter := 0; iter < 64; iter++ {
		var sum float64
		for _, nb := range nbrs {
			x := float64(nb.Dist - rho)
			if x < 0 {
				x = 0
			}
			sum += math.Exp(-x / sigma)
		}
		if math.Abs(sum-target) < 1e-5 {
			break
		}
		if sum > target {
			hi = sigma
			sigma = (lo + hi) / 2
		} else {
			lo = sigma
			if math.IsInf(hi, 1) {
				sigma *= 2
			} else {
				sigma = (lo + hi) / 2
			}
		}
	}
	if sigma < 1e-9 {
		sigma = 1e-9
	}
	return sigma
}

// randomProjectionInit projects the input through a seeded Gaussian matrix,
// the cheap structure-preserving initialization (Johnson–Lindenstrauss).
// The result is row-major, outDim coordinates per point.
func randomProjectionInit(points [][]float32, outDim int, seed int64) []float32 {
	inDim := len(points[0])
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	proj := make([][]float32, outDim)
	scale := float32(1 / math.Sqrt(float64(inDim)))
	for c := range proj {
		row := make([]float32, inDim)
		for d := range row {
			row[d] = float32(rng.NormFloat64()) * scale
		}
		proj[c] = row
	}
	out := make([]float32, len(points)*outDim)
	for i, p := range points {
		e := out[i*outDim : (i+1)*outDim]
		for c := range proj {
			e[c] = vec.Dot(proj[c], p) * 10
		}
	}
	return out
}

// fitAB fits the curve 1/(1+a·x^{2b}) to the target membership function
// exp(-(x-minDist)/spread) for x > minDist (1 below), via coarse grid plus
// local refinement — adequate because the objective is smooth and the
// optimum is loosely constrained.
func fitAB(spread, minDist float64) (a, b float64) {
	target := func(x float64) float64 {
		if x <= minDist {
			return 1
		}
		return math.Exp(-(x - minDist) / spread)
	}
	loss := func(a, b float64) float64 {
		var s float64
		for i := 1; i <= 60; i++ {
			x := 3 * spread * float64(i) / 60
			f := 1 / (1 + a*math.Pow(x, 2*b))
			d := f - target(x)
			s += d * d
		}
		return s
	}
	bestA, bestB, bestL := 1.0, 1.0, math.Inf(1)
	for a := 0.5; a <= 3.0; a += 0.05 {
		for b := 0.5; b <= 2.0; b += 0.05 {
			if l := loss(a, b); l < bestL {
				bestA, bestB, bestL = a, b, l
			}
		}
	}
	// One refinement pass around the grid optimum.
	for a := bestA - 0.05; a <= bestA+0.05; a += 0.005 {
		for b := bestB - 0.05; b <= bestB+0.05; b += 0.005 {
			if l := loss(a, b); l < bestL {
				bestA, bestB, bestL = a, b, l
			}
		}
	}
	return bestA, bestB
}

// optimize runs the negative-sampling SGD over the fuzzy graph, in place on
// the row-major layout emb.
func optimize(emb []float32, rows, cols []int32, weights []float32, cfg Config, a, b float32) {
	if len(rows) == 0 {
		return
	}
	dim := cfg.NComponents
	n := len(emb) / dim
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x2545f4914f6cdd1d))

	// epochsPerSample: edges with higher membership are updated more often.
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
	for epoch := 1; epoch <= cfg.NEpochs; epoch++ {
		alpha := alphaStart * (1 - float32(epoch)/float32(cfg.NEpochs))
		if alpha < alphaStart*0.01 {
			alpha = alphaStart * 0.01
		}
		fe := float32(epoch)
		for e := range rows {
			if nextEpoch[e] > fe {
				continue
			}
			nextEpoch[e] += epochsPerSample[e]
			i, j := int(rows[e]), int(cols[e])
			vi, vj := emb[i*dim:(i+1)*dim], emb[j*dim:(j+1)*dim]
			if d2 := layoutL2Sq(vi, vj); d2 > 0 {
				attract(vi, vj, attractCoef(d2, a, b), alpha)
			}
			// Repulsive updates against random negatives.
			for s := 0; s < cfg.NegativeSamples; s++ {
				k := rng.Intn(n)
				if k == i {
					continue
				}
				vk := emb[k*dim : (k+1)*dim]
				repel(vi, vk, repelCoef(layoutL2Sq(vi, vk), a, b), alpha)
			}
		}
	}
}

// The three per-edge steps of optimize. Each Go loop is the step's
// definition; at 16 dimensions, CTS's, an SSE2 body returns its bits
// (sgd_amd64.go). Reslicing the other row to len(x) lets the loops run
// without bounds checks.

// layoutL2Sq is vec.L2Sq of two layout rows.
func layoutL2Sq(x, y []float32) float32 {
	if sgdAsm && len(x) == 16 {
		y = y[:16]
		return l2sq16(&x[0], &y[0])
	}
	return vec.L2Sq(x, y)
}

// attract moves x and y toward each other along the attractive gradient
// with coefficient g.
func attract(x, y []float32, g, alpha float32) {
	y = y[:len(x)]
	if sgdAsm && len(x) == 16 {
		attract16(&x[0], &y[0], g, alpha)
		return
	}
	for d, xd := range x {
		gd := clip(g * (xd - y[d]))
		x[d] = xd + alpha*gd
		y[d] -= alpha * gd
	}
}

// repel moves x away from the negative sample z along the repulsive
// gradient with coefficient g.
func repel(x, z []float32, g, alpha float32) {
	z = z[:len(x)]
	if sgdAsm && len(x) == 16 {
		repel16(&x[0], &z[0], g, alpha)
		return
	}
	for d, xd := range x {
		x[d] = xd + alpha*clip(g*(xd-z[d]))
	}
}

// attractCoef is the coefficient of the attractive gradient at squared
// layout distance d2 > 0: −2ab·d2^(b−1) / (1 + a·d2^b), with d2^b taken as
// d2·d2^(b−1) so that the term costs one pow.
func attractCoef(d2, a, b float32) float32 {
	pw := pow32(d2, b-1)
	return (-2 * a * b * pw) / (1 + a*d2*pw)
}

// repelCoef is the coefficient of the repulsive gradient against a negative
// sample at squared distance d2: 2b / ((0.001 + d2)(1 + a·d2^b)), and the
// gradient cap where the two points coincide.
func repelCoef(d2, a, b float32) float32 {
	if d2 > 0 {
		return (2 * b) / ((0.001 + d2) * (1 + a*pow32(d2, b)))
	}
	return 4
}

// clip bounds one coordinate of a gradient to the reference's [−4, 4].
func clip(x float32) float32 {
	if x > 4 {
		return 4
	}
	if x < -4 {
		return -4
	}
	return x
}
