package core

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"semdisco/internal/hdbscan"
	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/umap"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// CTS is the Clustered Targeted Search of §4.3 / Algorithm 3, the paper's
// central contribution. Index time: value vectors are reduced with UMAP,
// clustered with HDBSCAN, each cluster gets a medoid and its own vector-
// database collection. Query time: the query is compared against the
// medoids (in the original embedding space — medoids are real data points,
// so the query needs no reduction), the top clusters are selected, and the
// ANNS procedure runs only inside those clusters. A cluster's collection
// holds one point per distinct text among its values, and each hit expands
// through that (cluster, text) posting.
type CTS struct {
	emb *Embedded
	// medoidVecs[c] is cluster c's medoid in the original embedding space.
	medoidVecs [][]float32
	// clusterColl[c] is the per-cluster collection ("we store each cluster
	// in a vector database, where each collection contains unique data
	// points").
	clusterColl []*vectordb.Collection
	post        *postings
	clusterOf   []int // value index -> cluster
	threshold   float32
	topClusters int
	fanout      int
	efSearch    int
}

// Reduction selects CTS's dimensionality-reduction stage.
type Reduction int

const (
	// ReduceUMAP is the paper's choice.
	ReduceUMAP Reduction = iota
	// ReducePCA is the ablation alternative.
	ReducePCA
	// ReduceNone clusters in the original space (ablation).
	ReduceNone
)

func (r Reduction) String() string {
	switch r {
	case ReduceUMAP:
		return "umap"
	case ReducePCA:
		return "pca"
	case ReduceNone:
		return "none"
	default:
		return fmt.Sprintf("reduction(%d)", int(r))
	}
}

// CTSOptions configures CTS.
type CTSOptions struct {
	// Threshold is the paper's h.
	Threshold float32
	// TopClusters is how many clusters the query descends into; the
	// default adapts to the clustering: max(8, 15% of the cluster count),
	// so the targeted fraction of the corpus stays comparable as corpora
	// and cluster granularities vary.
	TopClusters int
	// Reduction selects the reducer; default ReduceUMAP.
	Reduction Reduction
	// ReducedDim is the UMAP/PCA output dimension; default 16.
	ReducedDim int
	// MinClusterSize is HDBSCAN's granularity; default 8.
	MinClusterSize int
	// SampleCap bounds the O(n²) HDBSCAN run: when the corpus has more
	// value vectors, clustering runs on a stride sample and the remaining
	// points are assigned to the nearest medoid in reduced space (the
	// standard approximate-predict scheme). Default 4096.
	SampleCap int
	// UMAPEpochs caps layout optimization; 0 uses umap defaults.
	UMAPEpochs int
	// Fanout is distinct-text hits retrieved per query across the
	// selected clusters; defaults to 32·k at query time.
	Fanout int
	// EfSearch is the per-cluster HNSW beam width; default 96.
	EfSearch int
	// M, EfConstruction tune the per-cluster HNSW graphs.
	M, EfConstruction int
	// Seed drives reduction, clustering and index construction.
	Seed int64
	// Build bounds construction parallelism (see BuildOptions).
	Build BuildOptions
}

// NewCTS builds the clustered index. Building is the expensive phase
// (reduce + cluster + per-cluster graphs); queries afterwards only touch
// medoids and the selected clusters.
func NewCTS(emb *Embedded, opt CTSOptions) (*CTS, error) {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"ReducedDim", opt.ReducedDim},
		{"MinClusterSize", opt.MinClusterSize},
		{"SampleCap", opt.SampleCap},
		{"UMAPEpochs", opt.UMAPEpochs},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("core: cts: %s = %d, want >= 0 (0 takes the default)", f.name, f.v)
		}
	}
	if opt.ReducedDim == 0 {
		opt.ReducedDim = 16
	}
	if opt.MinClusterSize == 0 {
		opt.MinClusterSize = 8
	}
	if opt.SampleCap == 0 {
		opt.SampleCap = 4096
	}
	if opt.EfSearch == 0 {
		opt.EfSearch = 96
	}
	n := len(emb.Values)
	if n == 0 {
		return nil, fmt.Errorf("core: cts: empty federation")
	}
	workers := opt.Build.workers()

	points := make([][]float32, n)
	for i := range emb.Values {
		points[i] = emb.Values[i].Vec
	}
	_, medoidGlobal, clusterOf := partitionValues(points, opt, workers, emb.Obs)
	numClusters := len(medoidGlobal)
	medoidVecs := make([][]float32, numClusters)
	for c, gi := range medoidGlobal {
		medoidVecs[c] = points[gi]
	}

	// 5. One collection per cluster.
	colls := make([]*vectordb.Collection, numClusters)
	for c := range colls {
		coll, err := vectordb.NewCollection(vectordb.CollectionConfig{
			Dim:            emb.Enc.Dim(),
			Metric:         indexMetric,
			M:              opt.M,
			EfConstruction: opt.EfConstruction,
			EfSearch:       opt.EfSearch,
			Seed:           opt.Seed + int64(c),
			Workers:        workers,
		})
		if err != nil {
			return nil, fmt.Errorf("core: cts: %w", err)
		}
		coll.SetObserver(emb.Obs)
		colls[c] = coll
	}
	// Give each cluster one point per distinct text among its values, then
	// build the per-cluster graphs. Within a collection the insert order is
	// the points' first occurrence in value order, so a serial build is a
	// function of the clustering alone; with more workers the clusters —
	// uneven, independent build jobs — pull from a shared queue while each
	// batch also parallelizes inside.
	post := newPostings(emb, clusterOf, numClusters)
	insertErrs := make([]error, numClusters)
	buildPhase(emb.Obs, "hnsw_insert", func() {
		par.Each(numClusters, workers, func(c int) {
			if _, err := colls[c].InsertBatch(post.group(emb, c)); err != nil {
				insertErrs[c] = fmt.Errorf("core: cts insert: %w", err)
			}
		})
	})
	for _, err := range insertErrs {
		if err != nil {
			return nil, err
		}
	}
	emb.Obs.Gauge(MetricClusters).Set(float64(numClusters))
	emb.Obs.Gauge(MetricValues).Set(float64(len(emb.Values)))

	topClusters := opt.TopClusters
	if topClusters == 0 {
		topClusters = numClusters * 15 / 100
		if topClusters < 8 {
			topClusters = 8
		}
	}
	return &CTS{
		emb:         emb,
		medoidVecs:  medoidVecs,
		clusterColl: colls,
		post:        post,
		clusterOf:   clusterOf,
		threshold:   opt.Threshold,
		topClusters: topClusters,
		fanout:      opt.Fanout,
		efSearch:    opt.EfSearch,
	}, nil
}

// partitionValues is NewCTS's reduce → cluster → assign pipeline over the
// value vectors: it returns the reduced coordinates, each cluster's medoid
// as an index into points, and every point's cluster. opt arrives with its
// defaults filled.
func partitionValues(points [][]float32, opt CTSOptions, workers int, reg *obs.Registry) (reduced [][]float32, medoidGlobal []int, clusterOf []int) {
	n := len(points)

	// 1. Dimensionality reduction.
	buildPhase(reg, "umap", func() {
		switch opt.Reduction {
		case ReducePCA:
			reduced = umap.PCA(points, opt.ReducedDim, opt.Seed)
		case ReduceNone:
			reduced = points
		default:
			reduced = umap.Fit(points, umap.Config{
				NComponents: opt.ReducedDim,
				NEpochs:     opt.UMAPEpochs,
				Seed:        opt.Seed,
				Workers:     workers,
			})
		}
	})

	// 2. HDBSCAN on (a sample of) the reduced vectors.
	sampleIdx := strideSample(n, opt.SampleCap)
	samplePts := make([][]float32, len(sampleIdx))
	for i, gi := range sampleIdx {
		samplePts[i] = reduced[gi]
	}
	var res hdbscan.Result
	buildPhase(reg, "hdbscan", func() {
		res = hdbscan.Cluster(samplePts, hdbscan.Config{MinClusterSize: opt.MinClusterSize, Workers: workers})
	})

	// 3. Medoids. Degenerate clusterings (zero clusters) collapse to a
	// single cluster around the global medoid so that CTS remains total.
	if res.NumClusters == 0 {
		medoidGlobal = []int{globalMedoid(reduced, sampleIdx)}
	} else {
		medoidGlobal = make([]int, res.NumClusters)
		for c, mi := range res.Medoids {
			medoidGlobal[c] = sampleIdx[mi]
		}
	}
	medoidReduced := make([][]float32, len(medoidGlobal))
	for c, gi := range medoidGlobal {
		medoidReduced[c] = reduced[gi]
	}

	// 4. Assign every value to a cluster: sampled points keep their label
	// (noise included — it routes to the nearest medoid), everything else
	// goes to the nearest medoid in reduced space.
	clusterOf = make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	if res.NumClusters > 0 {
		for si, gi := range sampleIdx {
			clusterOf[gi] = res.Labels[si]
		}
	}
	// Each point's nearest medoid is an independent computation, so the
	// assignment shards across workers without changing any label.
	par.For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if clusterOf[i] >= 0 {
				continue
			}
			best, bestD := 0, float32(math.MaxFloat32)
			for c := range medoidReduced {
				if d := vec.L2Sq(reduced[i], medoidReduced[c]); d < bestD {
					best, bestD = c, d
				}
			}
			clusterOf[i] = best
		}
	})
	return reduced, medoidGlobal, clusterOf
}

// Name implements Searcher.
func (s *CTS) Name() string { return "CTS" }

// NumClusters reports how many clusters the index holds.
func (s *CTS) NumClusters() int { return len(s.medoidVecs) }

// ClusterOf exposes the value-to-cluster assignment for diagnostics.
func (s *CTS) ClusterOf(valueIdx int) int { return s.clusterOf[valueIdx] }

// Search implements Searcher: Algorithm 3's query phase for a keyword query.
func (s *CTS) Search(query string, k int) ([]Match, error) {
	return Search(context.Background(), s, s.emb.Enc, s.emb.Obs, query, k)
}

// SearchEncoded implements EncodedSearcher: the cluster walk for an
// already-encoded query vector (medoid_match → descent → rank), with
// cancellation checked inside each HNSW walk.
func (s *CTS) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return s.SearchFiltered(ctx, q, k, nil)
}

// SearchFiltered implements EncodedSearcher: cluster selection ignores the
// restriction (medoids summarize the whole corpus) and the per-cluster
// searches carry it as a tag filter.
func (s *CTS) SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error) {
	return searchOne(ctx, s, s.emb.Obs, q, k, allow)
}

// SearchEncodedBatch implements BatchSearcher.
func (s *CTS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	return searchBatch(ctx, s, qs, ks, costs)
}

func (s *CTS) searchBlock(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost) ([][]Match, error) {
	return s.emb.searchAllowed(ctx, o, qs, ks, allow, costs, s.search)
}

// descent returns one query's per-cluster retrieval parameters: how many
// hits to ask of each of the selected clusters and the beam width.
func (s *CTS) descent(k, selected int) (perCluster, ef int) {
	fanout := s.fanout
	if fanout == 0 {
		fanout = 32 * k
	}
	perCluster = fanout / selected
	if perCluster < k {
		perCluster = k
	}
	ef = s.efSearch
	if ef < perCluster {
		ef = perCluster
	}
	return perCluster, ef
}

// clampBeam narrows a descent to one collection: beams wider than the
// cluster only add heap overhead.
func clampBeam(perCluster, ef, collLen int) (int, int) {
	if perCluster > collLen {
		perCluster = collLen
		if ef > collLen {
			ef = collLen
		}
	}
	return perCluster, ef
}

// ctsPlan is one query's cluster itinerary: the clusters it selected (in
// medoid-score order) and the per-cluster retrieval parameters.
type ctsPlan struct {
	selected       []vec.Scored
	perCluster, ef int
	// hits[j] holds the results from selected[j]'s collection, filled by
	// the grouped probe phase and folded in itinerary order afterwards.
	hits [][]vectordb.Result
}

// search is CTS's one query body over a block of queries, with
// cluster-probe deduplication. Medoid match: one DotBatch pass scores every
// query against every medoid, and each query selects its top clusters.
// Descent: queries selecting the same cluster are grouped, so each distinct
// cluster collection is visited once per block — one
// Collection.SearchBatch, so one lock acquisition and one walk scratch per
// cluster rather than per (query, cluster) pair. GOMAXPROCS workers (one
// for a block of one) pull the distinct clusters from a queue; a probe
// writes its hit lists into slots no other probe touches, and the atomic
// cost accumulators take each walk's work from whichever worker ran it.
// Rank: each query's hit lists are folded in its own medoid-score order, so
// a row does not depend on the block it arrived in. An error is the
// lowest-numbered cluster's.
func (s *CTS) search(ctx context.Context, o searchObs, qs [][]float32, ks []int, allowed relSet, costs []*obs.Cost) ([][]Match, error) {
	nq := len(qs)
	numClusters := len(s.medoidVecs)
	dim := s.emb.Enc.Dim()
	// Rank clusters by medoid similarity (original space; medoids are data
	// points, so the query needs no reduction). DotBatch is bit-identical to
	// a vec.Dot loop, and clusters are pushed in ascending order.
	sp := o.stage("medoid_match").AnnotateInt("clusters_total", numClusters)
	medoidDots := make([]float32, nq*numClusters)
	vec.DotBatch(qs, s.medoidVecs, medoidDots)
	plans := make([]ctsPlan, nq)
	// first[c+1] counts the queries that selected cluster c.
	first := make([]int, numClusters+1)
	for qi, k := range ks {
		if k <= 0 {
			continue
		}
		top := vec.NewTopK(minInt(s.topClusters, numClusters))
		for c, sim := range medoidDots[qi*numClusters : (qi+1)*numClusters] {
			top.Push(c, sim)
		}
		selected := top.Sorted()
		if c := costs[qi]; c != nil {
			// One dot product per medoid; the descents charge their own walks.
			c.AddDistanceComps(int64(numClusters))
			c.AddBytesScanned(int64(numClusters) * int64(dim) * 4)
			c.AddCandidatesPruned(int64(numClusters - len(selected)))
		}
		perCluster, ef := s.descent(k, len(selected))
		plans[qi] = ctsPlan{selected: selected, perCluster: perCluster, ef: ef,
			hits: make([][]vectordb.Result, len(selected))}
		for _, sel := range selected {
			first[sel.ID+1]++
		}
	}
	o.endStage(sp.AnnotateInt("clusters_selected", len(plans[0].selected)))

	// Probe each distinct cluster once with every query that selected it.
	// A counting sort lays the probes out cluster by cluster: cluster c's are
	// slots first[c]..first[c+1] of the flat arrays, so a probe is one
	// SearchBatch over a contiguous run.
	sp = o.stage("descent").AnnotateInt("per_cluster_fanout", plans[0].perCluster)
	var probed []int
	for c := range numClusters {
		if first[c+1] > 0 {
			probed = append(probed, c)
		}
		first[c+1] += first[c]
	}
	n := first[numClusters]
	type probe struct{ qi, pos int }
	at := make([]probe, n)
	prepared := indexMetric.Prepare(qs)
	probeQs := make(vectordb.Queries, n)
	probeKs := make([]int, n)
	probeEfs := make([]int, n)
	probeCosts := make([]*obs.Cost, n)
	next := append([]int(nil), first[:numClusters]...)
	for qi := range plans {
		for pos, sel := range plans[qi].selected {
			j := next[sel.ID]
			next[sel.ID]++
			at[j], probeQs[j], probeCosts[j] = probe{qi, pos}, prepared[qi], costs[qi]
		}
	}
	// A block of one probes its clusters on the calling goroutine: split
	// over two cores, a single query's probes cost cts-cluster ~10% of its
	// qps (14 alternating pairs), the clients already keeping both busy.
	workers := runtime.GOMAXPROCS(0)
	if nq == 1 {
		workers = 1
	}
	filter := s.emb.valueFilter(s.post, allowed)
	errs := make([]error, len(probed))
	par.Each(len(probed), workers, func(i int) {
		c := probed[i]
		lo, hi := first[c], first[c+1]
		coll := s.clusterColl[c]
		l := coll.Len()
		for j := lo; j < hi; j++ {
			p := &plans[at[j].qi]
			probeKs[j], probeEfs[j] = clampBeam(p.perCluster, p.ef, l)
		}
		hits, err := coll.SearchBatch(ctx, probeQs[lo:hi], probeKs[lo:hi], probeEfs[lo:hi], filter, probeCosts[lo:hi])
		if err != nil {
			errs[i] = err
			return
		}
		for j, h := range hits {
			pr := at[lo+j]
			plans[pr.qi].hits[pr.pos] = h
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	totalHits := 0
	for _, hits := range plans[0].hits {
		totalHits += len(hits)
	}
	o.endStage(sp.AnnotateInt("hits", totalHits))

	sp = o.stage("rank")
	out := s.emb.rankBlock(s.post, allowed, s.threshold, ks, func(i int) [][]vectordb.Result { return plans[i].hits })
	o.endStage(sp.AnnotateInt("matches", len(out[0])))
	return out, nil
}

// strideSample returns up to cap evenly spaced indices of [0, n).
func strideSample(n, cap int) []int {
	if n <= cap {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, cap)
	stride := float64(n) / float64(cap)
	for i := 0; i < cap; i++ {
		out = append(out, int(float64(i)*stride))
	}
	return out
}

// globalMedoid returns the sampled point closest to the centroid of the
// reduced space.
func globalMedoid(reduced [][]float32, sampleIdx []int) int {
	centroid := make([]float32, len(reduced[0]))
	for _, gi := range sampleIdx {
		vec.Add(centroid, reduced[gi])
	}
	vec.Scale(centroid, 1/float32(len(sampleIdx)))
	best, bestD := sampleIdx[0], float32(math.MaxFloat32)
	for _, gi := range sampleIdx {
		if d := vec.L2Sq(reduced[gi], centroid); d < bestD {
			best, bestD = gi, d
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
