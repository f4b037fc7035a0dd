// Package hdbscan implements Hierarchical Density-Based Spatial Clustering
// of Applications with Noise (Campello, Moulavi, Sander 2013; McInnes,
// Healy, Astels 2017) with Excess-of-Mass cluster extraction, plus the
// medoid computation the paper adds on top ("While HDBSCAN does not
// automatically provide cluster centers, we address this limitation by
// manually computing the clusters medoids").
//
// Pipeline: k-nearest-neighbour core distances → mutual-reachability
// distances → minimum spanning tree (Prim) → single-linkage dendrogram →
// condensed tree (minimum cluster size) → stability-based cluster selection
// → labels with noise = -1 → per-cluster medoids.
package hdbscan

import (
	"math"
	"sort"

	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// Config controls clustering.
type Config struct {
	// MinClusterSize is the smallest group the condensed tree treats as a
	// cluster. Defaults to 5.
	MinClusterSize int
	// MinSamples is the k used for core distances (density smoothing).
	// Defaults to MinClusterSize.
	MinSamples int
	// AllowSingleCluster permits the root of the condensed tree to be
	// selected, which is required when the data forms one cluster plus
	// noise. Matches the reference implementation's flag of the same name;
	// defaults to false.
	AllowSingleCluster bool
	// Workers bounds the parallelism of the core-distance, MST and medoid
	// stages. 0 or 1 runs serially. The result is bit-identical for every
	// worker count: only independent per-point (or per-cluster) work is
	// sharded, and the Prim frontier argmin reduces in chunk order with the
	// same lowest-index tie-break the serial scan applies.
	Workers int
}

// Result is a completed clustering.
type Result struct {
	// Labels[i] is the cluster of point i, or Noise.
	Labels []int
	// NumClusters is the number of extracted clusters; labels run 0..N-1.
	NumClusters int
	// Medoids[c] is the index (into the input points) of cluster c's medoid:
	// the member minimizing total Euclidean distance to its co-members.
	Medoids []int
	// Stabilities[c] is the excess-of-mass stability of cluster c.
	Stabilities []float64
	// Probabilities[i] is the strength of point i's membership in its
	// cluster, in [0,1]; 0 for noise.
	Probabilities []float64
}

// Noise is the label assigned to points in no cluster.
const Noise = -1

// Cluster runs HDBSCAN on points under the Euclidean metric.
// The cost is O(n²) time and O(n) extra memory for the MST construction,
// which is the standard exact formulation.
func Cluster(points [][]float32, cfg Config) Result {
	n := len(points)
	if cfg.MinClusterSize <= 0 {
		cfg.MinClusterSize = 5
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = cfg.MinClusterSize
	}
	if n == 0 {
		return Result{Labels: []int{}}
	}
	if n == 1 {
		return Result{Labels: []int{Noise}, Probabilities: []float64{0}}
	}

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if n < parallelMinPoints {
		workers = 1
	}

	core := coreDistances(points, cfg.MinSamples, workers)
	edges := mstPrim(points, core, workers)
	merges := singleLinkage(edges, n)
	ct := condense(merges, n, cfg.MinClusterSize)
	selected := ct.selectEOM(cfg.AllowSingleCluster)
	labels, probs := ct.label(selected, n)

	numClusters := 0
	for _, l := range labels {
		if l+1 > numClusters {
			numClusters = l + 1
		}
	}
	medoids := computeMedoids(points, labels, numClusters, workers)
	stab := make([]float64, numClusters)
	for _, c := range selected {
		if ct.finalLabel[c] >= 0 {
			stab[ct.finalLabel[c]] = ct.stability[c]
		}
	}
	return Result{
		Labels:        labels,
		NumClusters:   numClusters,
		Medoids:       medoids,
		Stabilities:   stab,
		Probabilities: probs,
	}
}

// parallelMinPoints gates the sharded paths: tiny inputs finish before the
// goroutine fan-out pays for itself.
const parallelMinPoints = 256

// coreDistances returns, for each point, the distance to its k-th nearest
// neighbour (the point itself not counted): the last entry of its
// vec.NearestAll list, which does not depend on the worker count.
func coreDistances(points [][]float32, k, workers int) []float64 {
	n := len(points)
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		k = 1
	}
	core := make([]float64, n)
	for i, nbrs := range vec.NearestAll(points, k, workers) {
		core[i] = float64(nbrs[k-1].Dist)
	}
	return core
}

type mstEdge struct {
	a, b int
	w    float64
}

// mstPrim builds the minimum spanning tree of the complete graph under
// mutual-reachability distance max(core[a], core[b], d(a,b)).
//
// Each Prim round fuses the relax step and the frontier argmin over a
// chunk of vertices; chunks shard across workers and the per-chunk minima
// reduce serially in chunk order with a strict < comparison, reproducing
// the serial scan's lowest-index tie-break exactly. The relaxed distances
// themselves are pure per-vertex computations, so the tree is bit-identical
// at any worker count.
func mstPrim(points [][]float32, core []float64, workers int) []mstEdge {
	n := len(points)
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	bestFrom := make([]int, n)
	for i := range bestDist {
		bestDist[i] = math.Inf(1)
		bestFrom[i] = -1
	}
	type cand struct {
		next int
		d    float64
	}
	chunk := (n + workers - 1) / workers
	cands := make([]cand, workers)
	edges := make([]mstEdge, 0, n-1)
	cur := 0
	inTree[0] = true
	for len(edges) < n-1 {
		// Relax edges from cur and pick the closest frontier vertex, fused
		// per chunk.
		par.For(n, workers, func(lo, hi int) {
			best, bestD := -1, math.Inf(1)
			for j := lo; j < hi; j++ {
				if inTree[j] {
					continue
				}
				d := float64(vec.L2(points[cur], points[j]))
				if core[cur] > d {
					d = core[cur]
				}
				if core[j] > d {
					d = core[j]
				}
				if d < bestDist[j] {
					bestDist[j] = d
					bestFrom[j] = cur
				}
				if bestDist[j] < bestD {
					best, bestD = j, bestDist[j]
				}
			}
			cands[lo/chunk] = cand{best, bestD}
		})
		next, nextD := -1, math.Inf(1)
		for w := 0; w*chunk < n && w < len(cands); w++ {
			if c := cands[w]; c.next >= 0 && c.d < nextD {
				next, nextD = c.next, c.d
			}
		}
		if next < 0 {
			break // disconnected cannot happen on a complete graph
		}
		inTree[next] = true
		edges = append(edges, mstEdge{bestFrom[next], next, nextD})
		cur = next
	}
	return edges
}

// linkageMerge is one row of the single-linkage dendrogram, scipy-style:
// nodes 0..n-1 are points; merge i creates node n+i joining left and right
// at the given distance with the given total size.
type linkageMerge struct {
	left, right int
	dist        float64
	size        int
}

// singleLinkage converts MST edges (sorted ascending) into a dendrogram via
// union-find.
func singleLinkage(edges []mstEdge, n int) []linkageMerge {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w < edges[j].w
		}
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	parent := make([]int, n+len(edges))
	size := make([]int, n+len(edges))
	current := make([]int, n+len(edges)) // current dendrogram node of a root
	for i := range parent {
		parent[i] = i
		if i < n {
			size[i] = 1
			current[i] = i
		}
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merges := make([]linkageMerge, 0, len(edges))
	for i, e := range edges {
		ra, rb := find(e.a), find(e.b)
		node := n + i
		merges = append(merges, linkageMerge{
			left: current[ra], right: current[rb],
			dist: e.w, size: size[ra] + size[rb],
		})
		parent[ra] = node
		parent[rb] = node
		parent[node] = node
		size[node] = size[ra] + size[rb]
		current[node] = node
	}
	return merges
}
