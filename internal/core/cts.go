package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"semdisco/internal/hdbscan"
	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/umap"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// CTS is the Clustered Targeted Search of §4.3 / Algorithm 3, the paper's
// central contribution, laid out as an inverted file (Jégou et al.): the
// medoids are the coarse quantizer and the clusters its lists. Index time:
// value vectors are reduced with UMAP and clustered with HDBSCAN, each
// cluster gets a medoid, and its list holds one unit row per distinct text
// among its values. Query time: the query is compared against the medoids
// (in the original embedding space — medoids are real data points, so the
// query needs no reduction), the top clusters are selected, and the query
// scans only their lists. Each hit expands through its (cluster, text)
// posting.
type CTS struct {
	queryMetricsCache
	emb *Embedded
	// medoidVecs[c] is cluster c's medoid in the original embedding space.
	medoidVecs [][]float32
	// rows[p] is index point p's unit row: a normalized copy of its text's
	// vocabulary row, every row a view of one buffer in postings order, so
	// cluster c's list is rows[post.first[c]:post.first[c+1]].
	rows        [][]float32
	post        *postings
	clusterOf   []int // value index -> cluster
	threshold   float32
	topClusters int
	fanout      int
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
	// Seed drives reduction and clustering.
	Seed int64
	// Build bounds construction parallelism (see BuildOptions).
	Build BuildOptions
}

// NewCTS builds the clustered index. Building is the expensive phase
// (reduce + cluster); queries afterwards only touch medoids and the
// selected clusters' lists.
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

	// 5. One list per cluster: a unit row per point, filled by the copy and
	// normalization a vector database's insert performs.
	post := newPostings(emb, clusterOf, numClusters)
	dim := emb.Enc.Dim()
	buf := make([]float32, len(post.text)*dim)
	rows := make([][]float32, len(post.text))
	par.For(len(rows), workers, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			rows[p] = buf[p*dim : (p+1)*dim : (p+1)*dim]
			copy(rows[p], emb.rows[post.text[p]])
			vec.Normalize(rows[p])
		}
	})
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
		rows:        rows,
		post:        post,
		clusterOf:   clusterOf,
		threshold:   opt.Threshold,
		topClusters: topClusters,
		fanout:      opt.Fanout,
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

// Medoid exposes cluster c's medoid, a value vector, for diagnostics.
func (s *CTS) Medoid(c int) []float32 { return s.medoidVecs[c] }

// Search implements Searcher: Algorithm 3's query phase for a keyword query.
func (s *CTS) Search(query string, k int) ([]Match, error) {
	return Search(context.Background(), s, s.emb.Enc, s.emb.Obs, query, k)
}

// SearchEncoded implements EncodedSearcher: the cluster scan for an
// already-encoded query vector (medoid_match → descent → rank), with
// cancellation checked before each list probe and after each list.
func (s *CTS) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return s.SearchFiltered(ctx, q, k, nil)
}

// SearchFiltered implements EncodedSearcher: cluster selection ignores the
// restriction (medoids summarize the whole corpus) and the list scans carry
// it as a point filter.
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

// perCluster is how many hits a query of k results asks of each of the
// selected clusters.
func (s *CTS) perCluster(k, selected int) int {
	fanout := s.fanout
	if fanout == 0 {
		fanout = 32 * k
	}
	return max(fanout/selected, k)
}

// ctsPlan is one query's cluster itinerary: the clusters it selected (in
// medoid-score order) and how many hits it asks of each.
type ctsPlan struct {
	selected   []vec.Scored
	perCluster int
	// hits[j] holds the results from selected[j]'s list, filled by the
	// grouped probe phase and folded in itinerary order afterwards.
	hits [][]vectordb.Result
}

// candPool serves the probe workers' candidate lists: a worker borrows one
// per cluster, so a steady query load allocates none.
var candPool = sync.Pool{New: func() any { return new([]vectordb.Key) }}

// ctsScratch is one search call's working storage, pooled so a steady
// query or batch load allocates none of it: the medoid scores, the plans
// and the arenas their selections and hit lists are views of, the probe
// layout and the prepared queries. Nothing in it outlives the call; the
// ranked matches are built apart from it.
type ctsScratch struct {
	dots     []float32
	top      vec.TopK
	plans    []ctsPlan
	selected []vec.Scored
	lists    [][]vectordb.Result
	hits     []vectordb.Result
	first    []int
	next     []int
	probed   []int
	at       []ctsProbe
	errs     []error
	qbuf     []float32
	prepared vectordb.Queries
}

// ctsProbe is one (query, itinerary position) pair of the probe layout.
type ctsProbe struct{ qi, pos int }

var ctsScratchPool = sync.Pool{New: func() any { return new(ctsScratch) }}

// release returns sc to the pool with its errors dropped.
func (sc *ctsScratch) release() {
	clear(sc.errs)
	ctsScratchPool.Put(sc)
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// search is CTS's one query body over a block of queries, with
// cluster-probe deduplication. Medoid match: one DotBatch pass scores every
// query against every medoid, and each query selects its top clusters.
// Descent: queries selecting the same cluster are grouped, so each distinct
// list is visited by one worker with one candidate buffer, once per block.
// GOMAXPROCS workers (one for a block of one) pull the distinct clusters
// from a queue; a probe writes its hit list into a slot no other probe
// touches, and the atomic cost accumulators take each scan's work from
// whichever worker ran it. Rank: each query's hit lists are folded in its
// own medoid-score order, so a row does not depend on the block it arrived
// in. An error is the lowest-numbered cluster's.
func (s *CTS) search(ctx context.Context, o searchObs, qs [][]float32, ks []int, allowed relSet, costs []*obs.Cost) ([][]Match, error) {
	nq := len(qs)
	numClusters := len(s.medoidVecs)
	dim := s.emb.Enc.Dim()
	sc := ctsScratchPool.Get().(*ctsScratch)
	defer sc.release()
	// Rank clusters by medoid similarity (original space; medoids are data
	// points, so the query needs no reduction). DotBatch is bit-identical to
	// a vec.Dot loop, and clusters are pushed in ascending order.
	sp := o.stage("medoid_match").AnnotateInt("clusters_total", numClusters)
	sc.dots = resize(sc.dots, nq*numClusters)
	medoidDots := sc.dots
	vec.DotBatch(qs, s.medoidVecs, medoidDots)
	sc.plans = resize(sc.plans, nq)
	plans := sc.plans
	// first[c+1] counts the queries that selected cluster c.
	sc.first = resize(sc.first, numClusters+1)
	first := sc.first
	clear(first)
	// Each query's selection is a view of one arena, and so, once every
	// query has one, are its hit-list slots and its hit lists' room.
	selected := sc.selected[:0]
	slots, room := 0, 0
	for qi, k := range ks {
		plans[qi] = ctsPlan{}
		if k <= 0 {
			continue
		}
		sc.top.Reset(minInt(s.topClusters, numClusters))
		for c, sim := range medoidDots[qi*numClusters : (qi+1)*numClusters] {
			sc.top.Push(c, sim)
		}
		lo := len(selected)
		selected = sc.top.AppendSorted(selected)
		sel := selected[lo:len(selected):len(selected)]
		if c := costs[qi]; c != nil {
			// One dot product per medoid; the descents charge their own scans.
			c.AddDistanceComps(int64(numClusters))
			c.AddBytesScanned(int64(numClusters) * int64(dim) * 4)
			c.AddCandidatesPruned(int64(numClusters - len(sel)))
		}
		plans[qi] = ctsPlan{selected: sel, perCluster: s.perCluster(k, len(sel))}
		slots += len(sel)
		for _, m := range sel {
			first[m.ID+1]++
			room += s.hitRoom(m.ID, plans[qi].perCluster)
		}
	}
	// The arena may have moved while it grew: re-slice the selections.
	sc.selected = selected
	sc.lists = resize(sc.lists, slots)
	sc.hits = resize(sc.hits, room)
	slots, room = 0, 0
	for qi := range plans {
		p := &plans[qi]
		n := len(p.selected)
		if n == 0 {
			continue
		}
		p.selected = selected[slots : slots+n : slots+n]
		p.hits = sc.lists[slots : slots+n : slots+n]
		for j, m := range p.selected {
			r := s.hitRoom(m.ID, p.perCluster)
			p.hits[j] = sc.hits[room : room : room+r]
			room += r
		}
		slots += n
	}
	o.endStage(sp.AnnotateInt("clusters_selected", len(plans[0].selected)))

	// Probe each distinct cluster once with every query that selected it.
	// A counting sort lays the probes out cluster by cluster: cluster c's are
	// slots first[c]..first[c+1] of at.
	sp = o.stage("descent").AnnotateInt("per_cluster_fanout", plans[0].perCluster)
	scanned := o.scanned(costs[0])
	probed := sc.probed[:0]
	for c := range numClusters {
		if first[c+1] > 0 {
			probed = append(probed, c)
		}
		first[c+1] += first[c]
	}
	sc.probed = probed
	sc.at = resize(sc.at, first[numClusters])
	at := sc.at
	sc.qbuf, sc.prepared = vectordb.PrepareInto(sc.qbuf, sc.prepared, qs)
	prepared := sc.prepared
	sc.next = append(sc.next[:0], first[:numClusters]...)
	next := sc.next
	for qi := range plans {
		for pos, sel := range plans[qi].selected {
			at[next[sel.ID]] = ctsProbe{qi, pos}
			next[sel.ID]++
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
	sc.errs = resize(sc.errs, len(probed))
	errs := sc.errs
	clear(errs)
	par.Each(len(probed), workers, func(i int) {
		c := probed[i]
		cands := candPool.Get().(*[]vectordb.Key)
		defer candPool.Put(cands)
		for _, pr := range at[first[c]:first[c+1]] {
			if errs[i] = ctx.Err(); errs[i] != nil {
				return
			}
			plan := &plans[pr.qi]
			plan.hits[pr.pos] = s.probe(prepared[pr.qi], c, plan.perCluster, filter, costs[pr.qi], cands, plan.hits[pr.pos])
		}
		errs[i] = ctx.Err()
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
	o.endStage(scanned.annotate(sp).AnnotateInt("hits", totalHits))

	sp = o.stage("rank")
	out := s.emb.rankBlock(s.post, allowed, s.threshold, ks, func(i int) [][]vectordb.Result { return plans[i].hits })
	o.endStage(sp.AnnotateInt("matches", len(out[0])))
	return out, nil
}

// probe scans cluster c's list exactly for one prepared query q: every row
// is scored by its dot product with q, the rows filter accepts are kept as
// (1 − dot, point) candidates in *cands, and the perCluster first of them
// in that order come back as hits scored 1 − distance, appended to dst —
// a vector database's exact scan of the same rows. cost, when non-nil, is
// charged one distance computation and one scanned value per row, the
// candidates kept and the candidates pruned.
func (s *CTS) probe(q []float32, c, perCluster int, filter vectordb.Filter, cost *obs.Cost, cands *[]vectordb.Key, dst []vectordb.Result) []vectordb.Result {
	lo, hi := s.post.first[c], s.post.first[c+1]
	cs := (*cands)[:0]
	for p, row := range s.rows[lo:hi] {
		d := vec.Dot(q, row)
		if point := int32(lo + p); filter == nil || filter(point) {
			cs = append(cs, vectordb.KeyOf(d, point))
		}
	}
	*cands = cs
	found := vectordb.SelectNearest(cs, perCluster)
	if cost != nil {
		n := int64(hi - lo)
		cost.AddDistanceComps(n)
		cost.AddValuesScanned(n)
		cost.AddBytesScanned(n * int64(len(q)) * 4)
		cost.AddCandidatesGenerated(int64(len(cs)))
		cost.AddCandidatesPruned(int64(len(cs) - len(found)))
	}
	for _, key := range found {
		dst = append(dst, vectordb.Result{Score: 1 - key.Dist(), Tag: key.Slot()})
	}
	return dst
}

// hitRoom is the most hits a probe of cluster c for perCluster can
// return: its list's length when that is shorter.
func (s *CTS) hitRoom(c, perCluster int) int {
	return min(perCluster, s.post.first[c+1]-s.post.first[c])
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
