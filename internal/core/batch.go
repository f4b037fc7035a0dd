package core

import (
	"context"
	"fmt"

	"semdisco/internal/obs"
)

// BatchSearcher is implemented by searchers with a fused multi-query path:
// rank relations for a block of already-encoded query vectors in one pass
// over the index. ks[i] is query i's result bound (≤ 0 skips it with a nil
// row); costs, when non-nil, carries one optional accumulator per query,
// charged the same work the equivalent sequential SearchEncoded call would
// record. ExS, ANNS, CTS and the segment store all implement it.
//
// A method has one query body, which a single query runs as a block of one,
// so every batch row is bit-identical to the per-query SearchEncoded call,
// and every method spreads a batch over GOMAXPROCS workers. ExS scans the
// centroid rows once for the whole block; ANNS walks its queries with one
// walk scratch (HNSW state and ADC table) per worker; CTS probes each
// selected cluster once for all the queries that chose it, the distinct
// clusters spread over the workers. None of it changes which nodes a walk
// evaluates or the order hits are folded.
type BatchSearcher interface {
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error)
}

// centroidBlock is how many relation centroid rows the ExS filter pass
// scores between cancellation checks, at most one vec.DotHalf call per
// run of live rows: 64 binary16 rows × 256 dims = 32 KiB, so a block stays
// in L1/L2 while every 4-query group of a batch passes over it.
const centroidBlock = 64

// searchBatch is SearchEncodedBatch of every EncodedSearcher: it checks
// the block's parallel slices, answers an empty block with nil, gives
// every query a cost slot and runs s's body over the block, recording no
// stages.
func searchBatch(ctx context.Context, s EncodedSearcher, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	if len(ks) != len(qs) {
		return nil, fmt.Errorf("core: batch: %d ks for %d queries", len(ks), len(qs))
	}
	if costs != nil && len(costs) != len(qs) {
		return nil, fmt.Errorf("core: batch: %d costs for %d queries", len(costs), len(qs))
	}
	if len(qs) == 0 {
		return nil, nil
	}
	if costs == nil {
		costs = make([]*obs.Cost, len(qs))
	}
	return s.searchBlock(ctx, searchObs{}, qs, ks, nil, costs)
}
