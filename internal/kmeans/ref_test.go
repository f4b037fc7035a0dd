package kmeans

// The reference below is Run as it stood before it moved onto flat buffers
// and vec.L2SqRow — one vec.L2Sq call per (point, centroid) pair — kept
// verbatim but for its names: Run must return its bits.

import (
	"math"
	"math/rand"

	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// Run clusters points (each of equal dimension) into cfg.K groups.
// If there are fewer distinct points than K, surplus centroids duplicate
// existing points; every centroid is still valid.
func refRun(points [][]float32, cfg Config) Result {
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
	if len(points) < parallelMinPoints {
		workers = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	if k > len(points) {
		k = len(points)
	}
	centroids := refSeedPlusPlus(points, k, rng, workers)
	// Pad duplicated centroids if the caller asked for more clusters than
	// points; keeps downstream code simple (always exactly cfg.K entries).
	for len(centroids) < cfg.K {
		centroids = append(centroids, vec.Clone(points[rng.Intn(len(points))]))
	}

	assign := make([]int, len(points))
	bestD := make([]float32, len(points))
	counts := make([]int, cfg.K)
	prevInertia := math.Inf(1)
	var inertia float64
	iter := 0
	for ; iter < cfg.MaxIter; iter++ {
		// Assignment: each point's nearest centroid is independent, so the
		// scan shards freely; per-point distances land in bestD and the
		// inertia reduction below runs in point order, keeping the float64
		// sum identical to the serial loop.
		par.For(len(points), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p := points[i]
				best, d := 0, float32(math.MaxFloat32)
				for c, cent := range centroids {
					if dc := vec.L2Sq(p, cent); dc < d {
						best, d = c, dc
					}
				}
				assign[i] = best
				bestD[i] = d
			}
		})
		inertia = 0
		for i := range points {
			inertia += float64(bestD[i])
		}
		// Recompute centroids. Serial in point order: the accumulation
		// order defines the float32 rounding, and O(n·dim) is negligible
		// next to the O(n·k·dim) assignment above.
		dim := len(points[0])
		sums := make([][]float32, cfg.K)
		for c := range sums {
			sums[c] = make([]float32, dim)
			counts[c] = 0
		}
		for i, p := range points {
			vec.Add(sums[assign[i]], p)
			counts[assign[i]]++
		}
		for c := range sums {
			if counts[c] == 0 {
				// Empty cluster: reseat at the point farthest from its
				// centroid to avoid dead codewords.
				sums[c] = vec.Clone(points[refFarthestPoint(points, centroids, assign)])
				continue
			}
			vec.Scale(sums[c], 1/float32(counts[c]))
		}
		centroids = sums
		if prevInertia-inertia <= cfg.Tol*prevInertia {
			iter++
			break
		}
		prevInertia = inertia
	}
	return Result{Centroids: centroids, Assignment: assign, Inertia: inertia, Iterations: iter}
}

// seedPlusPlus picks k starting centroids with the k-means++ D² weighting.
// The per-point distance updates shard across workers; the weighted pick
// itself scans d2 serially, so the draw sequence matches the serial code.
func refSeedPlusPlus(points [][]float32, k int, rng *rand.Rand, workers int) [][]float32 {
	centroids := make([][]float32, 0, k)
	centroids = append(centroids, vec.Clone(points[rng.Intn(len(points))]))
	d2 := make([]float64, len(points))
	par.For(len(points), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2[i] = float64(vec.L2Sq(points[i], centroids[0]))
		}
	})
	for len(centroids) < k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = rng.Intn(len(points))
		} else {
			target := rng.Float64() * total
			acc := 0.0
			next = len(points) - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		c := vec.Clone(points[next])
		centroids = append(centroids, c)
		par.For(len(points), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := float64(vec.L2Sq(points[i], c)); d < d2[i] {
					d2[i] = d
				}
			}
		})
	}
	return centroids
}

// farthestPoint returns the index of the point with maximal distance to its
// assigned centroid, used to reseat empty clusters.
func refFarthestPoint(points, centroids [][]float32, assign []int) int {
	worst, worstD := 0, float32(-1)
	for i, p := range points {
		if d := vec.L2Sq(p, centroids[assign[i]]); d > worstD {
			worst, worstD = i, d
		}
	}
	return worst
}
