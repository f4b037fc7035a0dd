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
// router checks the result cache per item, deduplicates identical
// (query, k) items so repeated requests ride one slot, and hands the
// distinct remainder to the same scatter a single Search runs — each
// distinct query string encoded once, the whole encoded block sent to every
// shard in a single fan-out (one call per shard, so a netcluster.Group
// runs one failover race for the block, not one per query), merged and
// recorded per item. The spans land on the trace ctx carries, if any.
//
// The returned slice has one Result per item, in input order. Per-item
// semantics match Search: an item with K ≤ 0 yields an empty Result, a
// failed shard degrades every non-cached item, and only the parent
// context expiring (or every shard failing) turns into an error for the
// whole batch.
func (r *Router) SearchBatch(ctx context.Context, items []BatchQuery) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]*Result, len(items))

	// keys lists the distinct uncached (query, k) slots that actually
	// scatter; slot maps each remaining item to its key.
	slotOf := make(map[cacheKey]int)
	slot := make([]int, len(items))
	var keys []cacheKey
	for i, it := range items {
		if it.K <= 0 {
			results[i] = &Result{}
			continue
		}
		key := cacheKey{query: it.Query, k: it.K}
		if res, ok := r.cacheLookup(ctx, key, start); ok {
			results[i] = res
			continue
		}
		s, ok := slotOf[key]
		if !ok {
			s = len(keys)
			slotOf[key] = s
			keys = append(keys, key)
		}
		slot[i] = s
	}
	if len(keys) == 0 {
		return results, nil
	}
	scattered, err := r.scatter(ctx, obs.TraceFrom(ctx), start, keys)
	if err != nil {
		return nil, err
	}
	r.reg.Counter(MetricBatchSearches).Inc()

	// The first item of a slot owns its Result; in-batch duplicates share
	// the answer as coalesced copies.
	owned := make([]bool, len(keys))
	for i := range items {
		if results[i] != nil {
			continue
		}
		r.reg.Counter(MetricBatchQueries).Inc()
		if s := slot[i]; owned[s] {
			results[i] = r.coalesced(scattered[s])
		} else {
			owned[s] = true
			results[i] = scattered[s]
		}
	}
	return results, nil
}
