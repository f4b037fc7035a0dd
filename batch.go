package semdisco

import (
	"context"
	"sync"

	"semdisco/internal/obs"
)

// DoBatch implements Backend. Each distinct query text is encoded once,
// the distinct texts in parallel (duplicate strings share the vector), and
// the whole block is scored together: ExS runs one centroid filter pass
// over the corpus for every query of the batch, split over the cores; ANNS
// walks the graph per query on every core, one walk scratch per worker;
// and CTS deduplicates cluster probes across the batch. A store churned
// by writes does the same in each of its segments and merges per query.
//
// Results are positionally aligned with queries and bit-identical to
// issuing each query through Do. Cancellation via ctx aborts the whole
// batch with the context's error. Per-item costs also fold into a cost
// accumulator carried by ctx, so batch work is visible to callers
// accounting at the request level.
func (e *Engine) DoBatch(ctx context.Context, queries []Query) ([]*Response, error) {
	return e.observeBatch(ctx, queries, func(ctx context.Context, _ *obs.Trace) ([]*ClusterResult, error) {
		return e.searchBatch(ctx, queries)
	})
}

// searchBatch runs a block of queries against the segment store in one
// fused pass.
func (e *Engine) searchBatch(ctx context.Context, queries []Query) ([]*ClusterResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Encode once per distinct text, the distinct texts on every core;
	// duplicate strings share one vector. Items with K ≤ 0 are compacted out so the fused scan
	// never scores them; active maps the compacted block back to input
	// positions, and slot[s] is item s's distinct text.
	distinct := make(map[string]int, len(queries))
	var (
		texts  []string
		active []int
		slot   []int
		ks     []int
	)
	for i, q := range queries {
		if q.K <= 0 {
			continue
		}
		d, ok := distinct[q.Text]
		if !ok {
			d = len(texts)
			distinct[q.Text] = d
			texts = append(texts, q.Text)
		}
		active = append(active, i)
		slot = append(slot, d)
		ks = append(ks, q.K)
	}
	// The vectors live only through the search below, so their storage is
	// pooled: the rows are ranked into matches of their own.
	bs := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(bs)
	bs.vecBuf, bs.vecs = e.model.EncodeAllInto(bs.vecBuf, bs.vecs, texts)
	qs := make([][]float32, len(slot))
	for s, d := range slot {
		qs[s] = bs.vecs[d]
	}

	costs := make([]*obs.Cost, len(qs))
	for i := range costs {
		costs[i] = &obs.Cost{}
	}

	res := make([]ClusterResult, len(queries))
	if len(qs) > 0 {
		rows, err := e.store.SearchEncodedBatch(ctx, qs, ks, costs)
		if err != nil {
			return nil, err
		}
		parent := obs.CostFrom(ctx)
		for s, i := range active {
			res[i].Matches = rows[s]
			res[i].Cost = costs[s].Report()
			parent.AddReport(res[i].Cost)
		}
	}
	out := make([]*ClusterResult, len(queries))
	for i := range res {
		out[i] = &res[i]
	}
	return out, nil
}

// batchScratch is one searchBatch call's encoded query storage.
type batchScratch struct {
	vecBuf []float32
	vecs   [][]float32
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}
