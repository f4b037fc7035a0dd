// Package kmeans implements Lloyd's algorithm with k-means++ seeding on
// float32 vectors. It is the training routine behind the Product
// Quantization codebooks: pq.Train runs it once per subspace, and is its
// only caller.
//
// Run copies the points into one flat buffer and keeps the centroids in
// another, so both distance passes are rows of vec.L2SqRow: a point against
// every centroid in the assignment step, a new centroid against every point
// in the ++ seeding. Each entry of a row is bit-equal to vec.L2Sq, and
// L2Sq is bitwise symmetric ((a−b)² is (b−a)²), so the results are the
// bits of the per-pair loop the package used to run — on PQ's 4-dim
// subspaces, four centroids per SSE2 step instead of one call per pair.
//
// Training parallelizes across points (Config.Workers) without giving up
// determinism: only the embarrassingly-parallel per-point computations —
// nearest-centroid assignment and the D² updates of the ++ seeding — are
// sharded, while every floating-point reduction (inertia, centroid sums)
// runs serially in point order. Results are therefore bit-identical for a
// fixed seed regardless of worker count, including Workers: 1 versus the
// historical serial implementation.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// Result holds a clustering: k centroids and the assignment of every input
// point to its nearest centroid.
type Result struct {
	Centroids  [][]float32
	Assignment []int
	// Inertia is the final sum of squared distances of points to their
	// assigned centroid.
	Inertia float64
	// Iterations actually executed before convergence or the cap.
	Iterations int
}

// Config controls training.
type Config struct {
	// K is the number of clusters; required, must be ≥ 1.
	K int
	// MaxIter caps Lloyd iterations. Defaults to 25.
	MaxIter int
	// Tol stops early when relative inertia improvement falls below it.
	// Defaults to 1e-4.
	Tol float64
	// Seed drives the k-means++ initialization.
	Seed int64
	// Workers bounds the parallelism of the assignment and seeding steps.
	// 0 or 1 runs serially; results do not depend on the value.
	Workers int
}

// parallelMinPoints gates the sharded paths: below this the goroutine
// fan-out costs more than the distance arithmetic it spreads.
const parallelMinPoints = 256

// Run clusters points (each of equal dimension) into cfg.K groups.
// If there are fewer distinct points than K, surplus centroids duplicate
// existing points; every centroid is still valid.
func Run(points [][]float32, cfg Config) Result {
	if cfg.K < 1 {
		panic("kmeans: K must be >= 1")
	}
	if len(points) == 0 {
		panic("kmeans: no points")
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 25
	}
	if cfg.Tol == 0 {
		cfg.Tol = 1e-4
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	n, dim := len(points), len(points[0])
	if n < parallelMinPoints {
		workers = 1
	}
	flat := make([]float32, n*dim)
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("kmeans: point %d has dim %d, want %d", i, len(p), dim))
		}
		copy(flat[i*dim:], p)
	}
	point := func(i int) []float32 { return flat[i*dim : (i+1)*dim] }

	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k > n {
		k = n
	}
	cents := make([]float32, cfg.K*dim)
	seedPlusPlus(flat, n, dim, k, cents, rng, workers)
	// Pad duplicated centroids if the caller asked for more clusters than
	// points; keeps downstream code simple (always exactly cfg.K entries).
	for c := k; c < cfg.K; c++ {
		copy(cents[c*dim:], point(rng.Intn(n)))
	}

	assign := make([]int, n)
	bestD := make([]float32, n)
	counts := make([]int, cfg.K)
	next := make([]float32, cfg.K*dim)
	prevInertia := math.Inf(1)
	var inertia float64
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// Assignment: each point's nearest centroid is independent, so the
		// scan shards freely; per-point distances land in bestD and the
		// inertia reduction below runs in point order, keeping the float64
		// sum identical to the serial loop. The argmin keeps the first
		// strict minimum, as pq's Encode does.
		par.For(n, workers, func(lo, hi int) {
			row := make([]float32, cfg.K)
			for i := lo; i < hi; i++ {
				vec.L2SqRow(point(i), cents, row)
				best, d := 0, float32(math.MaxFloat32)
				for c, dc := range row {
					if dc < d {
						best, d = c, dc
					}
				}
				assign[i] = best
				bestD[i] = d
			}
		})
		inertia = 0
		for _, d := range bestD {
			inertia += float64(d)
		}
		// Recompute centroids. Serial in point order: the accumulation
		// order defines the float32 rounding, and O(n·dim) is negligible
		// next to the O(n·k·dim) assignment above.
		clear(next)
		clear(counts)
		for i, c := range assign {
			vec.Add(next[c*dim:(c+1)*dim], point(i))
			counts[c]++
		}
		far := -1
		for c, count := range counts {
			sum := next[c*dim : (c+1)*dim]
			if count == 0 {
				// Empty cluster: reseat at the point farthest from its
				// centroid to avoid dead codewords. The farthest point
				// depends only on this iteration's centroids, so every
				// empty cluster of the iteration takes the same one.
				if far < 0 {
					far = farthestPoint(flat, cents, assign)
				}
				copy(sum, point(far))
				continue
			}
			vec.Scale(sum, 1/float32(count))
		}
		cents, next = next, cents
		if prevInertia-inertia <= cfg.Tol*prevInertia {
			iter++
			break
		}
		prevInertia = inertia
	}
	centroids := make([][]float32, cfg.K)
	for c := range centroids {
		centroids[c] = cents[c*dim : (c+1)*dim : (c+1)*dim]
	}
	return Result{Centroids: centroids, Assignment: assign, Inertia: inertia, Iterations: iter}
}

// seedPlusPlus fills cents with k starting centroids drawn from the n flat
// points by the k-means++ D² weighting. Each new centroid's distances to
// every point are one row, sharded across workers; the weighted pick itself
// scans d2 serially, so the draw sequence matches the serial code.
func seedPlusPlus(flat []float32, n, dim, k int, cents []float32, rng *rand.Rand, workers int) {
	d2 := make([]float64, n)
	row := make([]float32, n)
	// The row pass lowers d2 to each point's distance to centroid c, or
	// sets it for the first centroid; a NaN distance therefore sticks only
	// there.
	var c []float32
	first := true
	rowPass := func(lo, hi int) {
		vec.L2SqRow(c, flat[lo*dim:hi*dim], row[lo:hi])
		for i := lo; i < hi; i++ {
			if d := float64(row[i]); first || d < d2[i] {
				d2[i] = d
			}
		}
	}
	pick := rng.Intn(n)
	c = cents[:dim]
	copy(c, flat[pick*dim:(pick+1)*dim])
	par.For(n, workers, rowPass)
	first = false
	for j := 1; j < k; j++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		c = cents[j*dim : (j+1)*dim]
		copy(c, flat[next*dim:(next+1)*dim])
		par.For(n, workers, rowPass)
	}
}

// farthestPoint returns the index of the point with maximal distance to its
// assigned centroid, used to reseat empty clusters.
func farthestPoint(flat, cents []float32, assign []int) int {
	dim := len(flat) / len(assign)
	worst, worstD := 0, float32(-1)
	for i, c := range assign {
		if d := vec.L2Sq(flat[i*dim:(i+1)*dim], cents[c*dim:(c+1)*dim]); d > worstD {
			worst, worstD = i, d
		}
	}
	return worst
}
