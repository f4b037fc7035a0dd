package core

import "semdisco/internal/par"

// BuildOptions bounds index-construction parallelism for every searcher.
// One knob covers all build stages: HNSW graph inserts, PQ/k-means codebook
// training, UMAP reduction and HDBSCAN clustering.
type BuildOptions struct {
	// Workers is the goroutine budget for the build. 0 uses GOMAXPROCS;
	// 1 forces the historical serial path, bit-identical for a fixed seed.
	//
	// Determinism with 2+ workers: PQ codebooks and codes, k-means, the
	// UMAP layout (its SGD is serial) and the HDBSCAN clustering stay
	// worker-count-invariant (their reductions run in a fixed order); the
	// HNSW graph shape depends on goroutine interleaving, and with it a
	// UMAP layout whose kNN graph is approximate (past umap's exact-kNN
	// threshold), so those vary between runs — retrieval quality is
	// asserted by the recall probe and graph-stats diagnostics instead.
	Workers int
}

// workers resolves the effective worker count.
func (b BuildOptions) workers() int { return par.Workers(b.Workers) }
