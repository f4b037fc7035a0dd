package core

import (
	"context"
	"fmt"
	"runtime"

	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// BatchSearcher is implemented by searchers with a fused multi-query path:
// rank relations for a block of already-encoded query vectors in one pass
// over the index. ks[i] is query i's result bound (≤ 0 skips it with a nil
// row); costs, when non-nil, carries one optional accumulator per query,
// charged the same work the equivalent sequential SearchEncoded call would
// record. ExS, ANNS and CTS all implement it.
//
// Every method's batch rows are bit-identical to per-query SearchEncoded
// calls, and every method spreads a batch over GOMAXPROCS workers. ExS
// scans the centroid rows once for the whole block; ANNS walks its queries
// with one walk scratch (HNSW state and ADC table) per worker; CTS probes
// each selected cluster once for all the queries that chose it, the
// distinct clusters spread over the workers. None of it changes which nodes
// a walk evaluates or the order hits are folded.
type BatchSearcher interface {
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error)
}

// centroidBlock is how many relation centroid rows the ExS filter pass
// gathers per kernel call: 64 rows × 192 dims × 4 B = 48 KiB per block,
// sized so a block plus the query rows streams through L1/L2 while the
// DotBatch register blocking reuses each row across 4 queries.
const centroidBlock = 64

// SearchEncodedBatch implements BatchSearcher for the exhaustive scan: the
// block runs through filterVerify, the body of the single query, so the
// same similarities (DotBatch is bit-identical to Dot) are folded in the
// same order and every row is bit-identical to the sequential
// SearchEncoded call.
func (s *ExS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	if err := checkBatchArgs(len(qs), ks, costs); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	if costs == nil {
		costs = make([]*obs.Cost, len(qs))
	}
	return s.filterVerify(ctx, searchObs{}, qs, ks, nil, costs)
}

// annsBlock is how many consecutive queries an ANNS batch worker walks
// before ranking them: the unit the workers pull from their queue. A run
// pays one collection lock and one pooled walk scratch for eight walks, and
// a 64-query batch still splits into eight runs, so a worker that drew
// short walks takes another run instead of idling while the other finishes
// one long chunk. A run's hits are 16 bytes each (id, score, tag), about
// 5 KB per query at the default fanout of 320, so how many are live at
// once no longer bounds the run length.
const annsBlock = 8

// SearchEncodedBatch implements BatchSearcher for ANNS: the block splits
// into contiguous runs of annsBlock queries, which GOMAXPROCS workers (as
// many as ExS scans with) pull from a queue. Each run walks through one
// collection SearchBatch — one lock acquisition and one walk scratch (HNSW
// visited set and heaps, and the ADC table) reused across it — and then
// ranks its own rows. A walk never reads another's state, so every row and
// every costs[i] is what the sequential call returns and records. An error
// is the lowest-indexed query's.
func (s *ANNS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	if err := checkBatchArgs(len(qs), ks, costs); err != nil {
		return nil, err
	}
	nq := len(qs)
	if nq == 0 {
		return nil, nil
	}
	fanouts := make([]int, nq)
	efs := make([]int, nq)
	for i, k := range ks {
		if k > 0 {
			fanouts[i], efs[i] = s.beam(k)
		}
	}
	if costs == nil {
		costs = make([]*obs.Cost, nq)
	}
	filter := s.emb.valueFilter(nil)
	out := make([][]Match, nq)
	errs := make([]error, nq)
	par.Each((nq+annsBlock-1)/annsBlock, runtime.GOMAXPROCS(0), func(b int) {
		lo, hi := b*annsBlock, min((b+1)*annsBlock, nq)
		hits, err := s.coll.SearchBatch(ctx, qs[lo:hi], fanouts[lo:hi], efs[lo:hi], filter, costs[lo:hi])
		if err != nil {
			errs[lo] = err
			return
		}
		for i := lo; i < hi; i++ {
			if ks[i] > 0 {
				out[i] = s.rankHits(hits[i-lo], ks[i])
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ctsPlan is one query's cluster itinerary: the clusters it selected (in
// medoid-score order, exactly as the sequential walk visits them) and the
// per-cluster retrieval parameters.
type ctsPlan struct {
	selected       []vec.Scored
	perCluster, ef int
	// hits[j] holds the results from selected[j]'s collection, filled by
	// the grouped probe phase and folded in itinerary order afterwards.
	hits [][]vectordb.Result
}

// SearchEncodedBatch implements BatchSearcher for CTS with cluster-probe
// deduplication: queries selecting the same cluster are grouped, so each
// distinct cluster collection is visited once per batch — one
// Collection.SearchBatch, so one lock acquisition and one walk scratch per
// cluster rather than per (query, cluster) pair. GOMAXPROCS workers pull
// the distinct clusters from a queue; a probe writes its hit lists into
// slots no other probe touches, and the atomic cost accumulators take each
// walk's work from whichever worker ran it. Once every probe is back, each
// query's hit lists are folded in its own medoid-score order, the exact
// accumulation order of the sequential walk, so results match per-query
// SearchEncoded calls. An error is the lowest-numbered cluster's.
func (s *CTS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	if err := checkBatchArgs(len(qs), ks, costs); err != nil {
		return nil, err
	}
	nq := len(qs)
	if nq == 0 {
		return nil, nil
	}

	// Medoid match for the whole batch in one kernel pass. DotBatch is
	// bit-identical to the sequential vec.Dot loop, and clusters are pushed
	// in the same ascending order, so each query selects exactly the
	// clusters its sequential walk would.
	numClusters := len(s.medoidVecs)
	medoidDots := make([]float32, nq*numClusters)
	vec.DotBatch(qs, s.medoidVecs, medoidDots)

	plans := make([]*ctsPlan, nq)
	// queriesOf[c] lists the batch indices that selected cluster c, with the
	// position of c in each query's itinerary.
	type probe struct{ qi, pos int }
	queriesOf := make([][]probe, numClusters)
	dim := s.emb.Enc.Dim()
	for qi, k := range ks {
		if k <= 0 {
			continue
		}
		top := vec.NewTopK(minInt(s.topClusters, numClusters))
		row := medoidDots[qi*numClusters : (qi+1)*numClusters]
		for c, sim := range row {
			top.Push(c, sim)
		}
		selected := top.Sorted()
		if costs != nil && costs[qi] != nil {
			costs[qi].AddDistanceComps(int64(numClusters))
			costs[qi].AddBytesScanned(int64(numClusters) * int64(dim) * 4)
			costs[qi].AddCandidatesPruned(int64(numClusters - len(selected)))
		}
		perCluster, ef := s.descent(k, len(selected))
		p := &ctsPlan{selected: selected, perCluster: perCluster, ef: ef,
			hits: make([][]vectordb.Result, len(selected))}
		plans[qi] = p
		for pos, sel := range selected {
			queriesOf[sel.ID] = append(queriesOf[sel.ID], probe{qi, pos})
		}
	}

	// Probe each distinct cluster once with every query that selected it.
	var probed []int
	for c, probes := range queriesOf {
		if len(probes) > 0 {
			probed = append(probed, c)
		}
	}
	filter := s.emb.valueFilter(nil)
	errs := make([]error, len(probed))
	par.Each(len(probed), runtime.GOMAXPROCS(0), func(i int) {
		c := probed[i]
		probes := queriesOf[c]
		coll := s.clusterColl[c]
		l := coll.Len()
		subQs := make([][]float32, len(probes))
		subKs := make([]int, len(probes))
		subEfs := make([]int, len(probes))
		var subCosts []*obs.Cost
		if costs != nil {
			subCosts = make([]*obs.Cost, len(probes))
		}
		for j, pr := range probes {
			p := plans[pr.qi]
			subQs[j] = qs[pr.qi]
			subKs[j], subEfs[j] = clampBeam(p.perCluster, p.ef, l)
			if costs != nil {
				subCosts[j] = costs[pr.qi]
			}
		}
		hits, err := coll.SearchBatch(ctx, subQs, subKs, subEfs, filter, subCosts)
		if err != nil {
			errs[i] = err
			return
		}
		for j, pr := range probes {
			plans[pr.qi].hits[pr.pos] = hits[j]
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Fold each query's buffered hits in its own itinerary order — the
	// order the sequential walk accumulates them — then rank.
	out := make([][]Match, nq)
	for qi, p := range plans {
		if p == nil {
			continue
		}
		n := s.emb.NumRelations()
		sums := make([]float32, n)
		hitCount := make([]float32, n)
		for _, hits := range p.hits {
			s.emb.foldHits(hits, sums, hitCount)
		}
		out[qi] = s.emb.rankRelations(sums, hitCount, s.threshold, ks[qi])
	}
	return out, nil
}

// checkBatchArgs validates the parallel-slice shape shared by every
// SearchEncodedBatch implementation.
func checkBatchArgs(nq int, ks []int, costs []*obs.Cost) error {
	if len(ks) != nq {
		return fmt.Errorf("core: batch: %d ks for %d queries", len(ks), nq)
	}
	if costs != nil && len(costs) != nq {
		return fmt.Errorf("core: batch: %d costs for %d queries", len(costs), nq)
	}
	return nil
}
