package cluster

import (
	"context"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// BatchShard is optionally implemented by shards that can answer a block of
// queries in one call (netcluster.Group does, over the batch wire route).
// The router uses it to send a block of more than one query to a shard in
// one call, falling back to per-query SearchEncoded calls on shards
// without it.
type BatchShard interface {
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error)
}

// BatchQuery is one item of a batched federated search.
type BatchQuery struct {
	Query string
	K     int
}

// SearchBatch answers a block of queries with one scatter-gather: the
// items with K > 0 go, in order, to the same scatter a single Search runs
// — each distinct query string encoded once, the whole encoded block sent
// to every shard in a single fan-out (one call per shard, so a
// netcluster.Group runs one failover loop for the block, not one per
// query), merged and recorded per item. The spans land on the trace ctx
// carries, if any.
//
// The returned slice has one Result per item, in input order. Per-item
// semantics match Search: an item with K ≤ 0 yields an empty Result, a
// failed shard degrades every other item, and only the parent context
// expiring (or every shard failing) turns into an error for the whole
// batch.
func (r *Router) SearchBatch(ctx context.Context, items []BatchQuery) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]*Result, len(items))
	var (
		active []BatchQuery
		pos    []int
	)
	for i, it := range items {
		if it.K <= 0 {
			results[i] = &Result{}
			continue
		}
		active = append(active, it)
		pos = append(pos, i)
	}
	if len(active) == 0 {
		return results, nil
	}
	scattered, err := r.scatter(ctx, obs.TraceFrom(ctx), start, active)
	if err != nil {
		return nil, err
	}
	r.batchesC.Get().Inc()
	r.batchQueriesC.Get().Add(int64(len(active)))
	for s, i := range pos {
		results[i] = scattered[s]
	}
	return results, nil
}
