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
// calls. ExS scans the centroid rows once for the whole block, split over
// the cores; ANNS walks its queries on every core, one walk scratch (HNSW
// state and ADC table) per worker; CTS probes each selected cluster once
// for all the queries that chose it, on one core. None of it changes which
// nodes a walk evaluates or the order hits are folded.
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
// before ranking them. A walk's hits, one cloned payload map per value,
// are most of a query's allocation and stay live until ranked; blocks this
// short keep a batch's live heap at one block per worker instead of the
// whole batch. Against one chunk per worker, it cut a server's peak RSS
// from 78 to 68 MB on 3.2k values at dim 256 with two cores.
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
			if ks[i] <= 0 {
				continue
			}
			if out[i], err = s.rankHits(hits[i-lo], ks[i]); err != nil {
				errs[i] = err
				return
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
// distinct cluster collection is visited once per batch — one lock
// acquisition and one HNSW scratch per cluster rather than per
// (query, cluster) pair. Every per-query hit list is buffered and folded in
// the query's own medoid-score order, the exact accumulation order of the
// sequential walk, so results match per-query SearchEncoded calls. The
// probes run on one core: spread over two they raised peak RSS by 13–14%,
// because every hit still clones its payload map (DESIGN.md §10).
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
	for c, probes := range queriesOf {
		if len(probes) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
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
		hits, err := coll.SearchBatch(ctx, subQs, subKs, subEfs, s.emb.valueFilter(nil), subCosts)
		if err != nil {
			return nil, err
		}
		for j, pr := range probes {
			plans[pr.qi].hits[pr.pos] = hits[j]
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
			if err := s.emb.foldHits(hits, sums, hitCount); err != nil {
				return nil, err
			}
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
