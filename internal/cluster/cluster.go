// Package cluster is the scatter-gather layer under netcluster's
// coordinator: a Router that owns N shards (each one replica set of a
// corpus partition) and answers queries by encoding once, fanning out
// concurrently and merging per-shard top-k′ into a global top-k with
// deterministic tie-breaking. A shard that fails degrades the answer to
// the healthy shards' results, annotated rather than discarded. Failover
// across the replicas of a set is the Shard's own (netcluster.Group).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// Metric series recorded by the Router. Per-shard series carry a
// shard="<index>" label.
const (
	// MetricSearches counts completed cluster searches.
	MetricSearches = "semdisco_cluster_searches_total"
	// MetricSearchSeconds is end-to-end federated query latency, the
	// cluster-level histogram trace exemplars attach to.
	MetricSearchSeconds = "semdisco_cluster_search_seconds"
	// MetricShardSearchSeconds is per-shard search latency.
	MetricShardSearchSeconds = "semdisco_cluster_shard_search_seconds"
	// MetricShardErrors counts failed shard searches, timeouts included.
	MetricShardErrors = "semdisco_cluster_shard_errors_total"
	// MetricShardTimeouts counts shard searches that failed on a deadline
	// of their own (every replica attempt timed out) while the query's
	// context was still live.
	MetricShardTimeouts = "semdisco_cluster_shard_timeouts_total"
	// MetricDegraded counts searches answered from a strict subset of
	// shards.
	MetricDegraded = "semdisco_cluster_degraded_total"
	// MetricBatchSearches counts SearchBatch fan-outs (one per batch, not
	// per query; the queries inside still count into MetricSearches).
	MetricBatchSearches = "semdisco_cluster_batch_searches_total"
	// MetricBatchQueries counts queries answered through SearchBatch.
	MetricBatchQueries = "semdisco_cluster_batch_queries_total"
)

// MetricHelp maps the router's metric base names to their Prometheus
// HELP texts; NewRouter registers them on the registry it is given.
var MetricHelp = map[string]string{
	MetricSearches:           "Completed cluster searches.",
	MetricSearchSeconds:      "End-to-end federated query latency in seconds.",
	MetricShardSearchSeconds: "Per-shard search latency in seconds.",
	MetricShardErrors:        "Failed shard searches, timeouts included.",
	MetricShardTimeouts:      "Shard searches that timed out while the query was still live.",
	MetricDegraded:           "Searches answered from a strict subset of shards.",
	MetricBatchSearches:      "Batched scatter-gather fan-outs.",
	MetricBatchQueries:       "Queries answered through the batch path.",
}

// Shard is one partition's search engine: rank the shard's relations for a
// pre-encoded query vector, honoring ctx. netcluster.Group satisfies it
// for a replica set.
type Shard interface {
	SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error)
}

// Options configures a Router.
type Options struct {
	// Exact declares that every shard ranks exactly (ExS), and each is
	// asked for k: a shard ranks by (score descending, insertion rank
	// ascending), so its top k holds every member of the global top k it
	// owns. Otherwise each shard is asked for k+approxSlack and the router
	// merges down to k.
	Exact bool
	// Method labels metrics and stats ("ExS", "CTS", …).
	Method string
	// Encode embeds a query string once; the vector fans out to all shards.
	Encode func(query string) []float32
	// Order maps a relation ID to its global rank (federation insertion
	// order). Merged results tie-break on it, which makes the merged
	// ranking bit-identical to the single-engine ranking for ExS — the
	// single engine breaks score ties by ascending relation index.
	Order func(relID string) int
	// Registry receives the router's metrics; nil disables them.
	Registry *obs.Registry
}

// ShardError is one shard's failure during a scatter-gather query.
type ShardError struct {
	Shard int
	Err   error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e ShardError) Unwrap() error { return e.Err }

// Result is one scatter-gather answer plus its health metadata.
type Result struct {
	// Matches is the merged global top-k.
	Matches []core.Match
	// TraceID is the hex trace ID the query ran under, "" when untraced.
	// Interesting outcomes (degraded, errored, slow) are retained in the
	// owning layer's trace store under this ID.
	TraceID string
	// Degraded reports that at least one shard failed or timed out and
	// Matches covers only the healthy shards' partitions.
	Degraded bool
	// ShardErrors lists the failed shards, ascending by shard index.
	ShardErrors []ShardError
	// Cost aggregates the work every shard attempt performed for this
	// query.
	Cost obs.CostReport
	// ShardCosts is the per-shard breakdown, indexed by shard; failed
	// shards report the work their failing attempt still performed.
	ShardCosts []obs.CostReport
}

// shardState is the router's per-shard bookkeeping: counters and the
// latency window behind Stats, and the shard's metric series, resolved on
// first use.
type shardState struct {
	searches atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
	lat      Window

	seconds           *obs.HistogramRef
	errorsC, timeoutC *obs.CounterRef
}

// approxSlack widens each shard's fetch when the shards rank approximately
// (ANNS, CTS): their candidate fan-out grows with k, so a shard asked for
// more returns better scores near its k-th.
const approxSlack = 8

// Router fans queries out over N shards and merges their answers. Search,
// SearchBatch, NoteAdd and NoteDelete are safe for concurrent use.
type Router struct {
	shards []Shard
	opts   Options
	state  []*shardState
	reg    *obs.Registry
	// relCount[i] tracks shard i's relation count for Stats; searches and
	// degraded count stats queries, not correctness.
	relCount []atomic.Int64
	searches atomic.Int64
	degraded atomic.Int64
	// The router's own series, resolved on first use.
	searchesC, degradedC, batchesC, batchQueriesC *obs.CounterRef
	seconds                                       *obs.HistogramRef
}

// NewRouter builds a Router over pre-built shards. relCounts mirrors each
// shard's relation count for Stats; len(relCounts) must equal len(shards).
func NewRouter(shards []Shard, relCounts []int, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	if len(relCounts) != len(shards) {
		return nil, fmt.Errorf("cluster: %d shards but %d relation counts", len(shards), len(relCounts))
	}
	if opts.Encode == nil {
		return nil, errors.New("cluster: Options.Encode is required")
	}
	if opts.Order == nil {
		return nil, errors.New("cluster: Options.Order is required")
	}
	r := &Router{
		shards:   shards,
		opts:     opts,
		state:    make([]*shardState, len(shards)),
		reg:      opts.Registry,
		relCount: make([]atomic.Int64, len(shards)),
	}
	r.reg.SetHelps(MetricHelp)
	r.searchesC = r.reg.CounterRef(MetricSearches)
	r.degradedC = r.reg.CounterRef(MetricDegraded)
	r.batchesC = r.reg.CounterRef(MetricBatchSearches)
	r.batchQueriesC = r.reg.CounterRef(MetricBatchQueries)
	r.seconds = r.reg.HistogramRef(MetricSearchSeconds)
	for i := range r.state {
		shard := strconv.Itoa(i)
		r.state[i] = &shardState{
			seconds:  r.reg.HistogramRef(obs.L(MetricShardSearchSeconds, "shard", shard)),
			errorsC:  r.reg.CounterRef(obs.L(MetricShardErrors, "shard", shard)),
			timeoutC: r.reg.CounterRef(obs.L(MetricShardTimeouts, "shard", shard)),
		}
		r.relCount[i].Store(int64(relCounts[i]))
	}
	return r, nil
}

// NoteAdd records that one relation landed on shard i.
func (r *Router) NoteAdd(i int) { r.relCount[i].Add(1) }

// NoteDelete records that one relation left shard i.
func (r *Router) NoteDelete(i int) { r.relCount[i].Add(-1) }

// Search answers a query by scatter-gather over all shards. See
// SearchTraced for the trace-carrying variant.
func (r *Router) Search(ctx context.Context, query string, k int) (*Result, error) {
	return r.SearchTraced(ctx, query, k, nil)
}

// SearchTraced is Search with the span tree of the federated query
// recorded on tr: encode → scatter → merge, with one child span under
// scatter per shard, each annotated with its shard index and failure
// detail. The scatter span itself is annotated with shard count and
// failures. The error return is reserved for total failure — the parent
// context expiring, or every shard failing; partial failure returns a
// degraded Result instead.
func (r *Router) SearchTraced(ctx context.Context, query string, k int, tr *obs.Trace) (*Result, error) {
	if k <= 0 {
		return &Result{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := r.scatter(ctx, tr, time.Now(), []BatchQuery{{Query: query, K: k}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// scatter is the body of every federated search, one query or a block:
// encode → fan out → merge → record, yielding one Result per item. Search
// and SearchBatch share it whole, so failed-shard cost and shard spans
// cannot differ between them.
func (r *Router) scatter(ctx context.Context, tr *obs.Trace, start time.Time, items []BatchQuery) ([]*Result, error) {
	sp := tr.StartSpan("encode")
	// Each distinct string is encoded once; the same string under another k
	// shares the vector.
	encoded := make(map[string][]float32, len(items))
	qs := make([][]float32, len(items))
	kPrimes := make([]int, len(items))
	widest := 0
	for s, it := range items {
		q, ok := encoded[it.Query]
		if !ok {
			q = r.opts.Encode(it.Query)
			encoded[it.Query] = q
		}
		qs[s] = q
		kPrimes[s] = it.K
		if !r.opts.Exact {
			kPrimes[s] += approxSlack
		}
		widest = max(widest, kPrimes[s])
	}
	sp.End()

	n := len(r.shards)
	outs, errs := make([]shardAnswer, n), make([]error, n)
	sp = tr.StartSpan("scatter").
		AnnotateInt("shards", n).
		AnnotateInt("queries", len(items)).
		AnnotateInt("k_prime", widest)
	// Every set but the last gets a goroutine; the last runs on the
	// caller's, which would otherwise only wait.
	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = r.searchShard(ctx, sp, i, qs, kPrimes)
		}(i)
	}
	outs[n-1], errs[n-1] = r.searchShard(ctx, sp, n-1, qs, kPrimes)
	wg.Wait()
	var shardErrs []ShardError
	for i := range outs {
		if errs[i] != nil {
			shardErrs = append(shardErrs, ShardError{Shard: i, Err: errs[i]})
		}
	}
	sp.AnnotateInt("failed_shards", len(shardErrs))
	sp.End()

	// The parent context dying is a query-level failure: whatever shards
	// returned, the caller's deadline is spent.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(shardErrs) == n {
		return nil, fmt.Errorf("cluster: all %d shards failed: %w", n, shardErrs[0])
	}

	sp = tr.StartSpan("merge")
	results := make([]*Result, len(items))
	perShard := make([][]core.Match, 0, n)
	merged := 0
	for s, it := range items {
		res := &Result{
			Degraded:    len(shardErrs) > 0,
			ShardErrors: shardErrs,
			ShardCosts:  make([]obs.CostReport, n),
		}
		perShard = perShard[:0]
		for i := range outs {
			res.ShardCosts[i] = outs[i].costs[s]
			res.Cost.Add(outs[i].costs[s])
			if errs[i] == nil {
				perShard = append(perShard, outs[i].matches[s])
			}
		}
		res.Matches = r.merge(perShard, it.K)
		merged += len(res.Matches)
		// Fold the aggregate into a caller-provided accumulator, so a layer
		// above the router (or a test) can account federated work uniformly.
		obs.CostFrom(ctx).AddReport(res.Cost)
		r.searches.Add(1)
		r.searchesC.Get().Inc()
		if res.Degraded {
			r.degraded.Add(1)
			r.degradedC.Get().Inc()
		}
		results[s] = res
	}
	sp.AnnotateInt("matches", merged).End()
	r.seconds.Get().Observe(time.Since(start))
	return results, nil
}

// shardAnswer is what one shard yields for a block of queries.
type shardAnswer struct {
	// matches holds one ranking per query; nil when the shard failed.
	matches [][]core.Match
	// costs holds the work done per query, reported by failed shards too.
	costs []obs.CostReport
}

// searchShard runs one shard's block — a block of one through
// SearchEncoded, a larger one through the BatchShard fast path when the
// shard has it and query by query otherwise — recording latency,
// per-query cost, its span (a child of the scatter span, annotated with
// shard index and failure detail) and classifying failures. A failed shard
// is not retried here: failover across a set's replicas is the Shard's
// own (netcluster.Group).
func (r *Router) searchShard(ctx context.Context, scatter *obs.Span, i int, qs [][]float32, ks []int) (shardAnswer, error) {
	st := r.state[i]
	st.searches.Add(1)
	sp := scatter.StartChild("shard").AnnotateInt("shard", i)
	costs := make([]*obs.Cost, len(qs))
	for j := range costs {
		costs[j] = &obs.Cost{}
	}
	var (
		ms  [][]core.Match
		err error
	)
	start := time.Now()
	if bs, ok := r.shards[i].(BatchShard); ok && len(qs) > 1 {
		ms, err = bs.SearchEncodedBatch(ctx, qs, ks, costs)
	} else {
		ms = make([][]core.Match, len(qs))
		for j := range qs {
			ms[j], err = r.shards[i].SearchEncoded(obs.ContextWithCost(ctx, costs[j]), qs[j], ks[j])
			if err != nil {
				break
			}
		}
	}
	d := time.Since(start)

	ans := shardAnswer{costs: make([]obs.CostReport, len(qs))}
	var work obs.CostReport
	for j, c := range costs {
		ans.costs[j] = c.Report()
		work.Add(ans.costs[j])
	}
	st.seconds.Get().Observe(d)
	if err == nil {
		st.lat.Record(d)
		ans.matches = ms
		found := 0
		for _, m := range ms {
			found += len(m)
		}
		sp.AnnotateInt("matches", found).
			AnnotateInt("distance_comps", int(work.DistanceComps)).
			AnnotateInt("pq_lookups", int(work.PQLookups)).
			End()
		return ans, nil
	}
	st.errors.Add(1)
	st.errorsC.Get().Inc()
	sp.Annotate("error", err.Error())
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		st.timeouts.Add(1)
		st.timeoutC.Get().Inc()
		sp.Annotate("timeout", "true")
	}
	sp.End()
	return ans, err
}

// merge folds per-shard top-k′ lists into the global top-k. Ordering is
// score descending with ties broken by ascending global relation order —
// the same comparator the single-engine ranking uses (score descending,
// relation index ascending), so for exact shards the merged ranking is
// bit-identical to the monolith's.
func (r *Router) merge(perShard [][]core.Match, k int) []core.Match {
	total := 0
	for _, ms := range perShard {
		total += len(ms)
	}
	all := make([]core.RankedMatch, 0, total)
	for _, ms := range perShard {
		for _, m := range ms {
			all = append(all, core.RankedMatch{Match: m, Order: r.opts.Order(m.RelationID)})
		}
	}
	return core.MergeRanked(all, k)
}

// ShardStats is one shard's health snapshot; the latency quantiles are
// over its recent successful searches.
type ShardStats struct {
	Shard     int     `json:"shard"`
	Relations int     `json:"relations"`
	Searches  int64   `json:"searches"`
	Errors    int64   `json:"errors"`
	Timeouts  int64   `json:"timeouts"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
}

// Stats is the router's point-in-time health snapshot.
type Stats struct {
	Shards   []ShardStats `json:"shards"`
	Searches int64        `json:"searches"`
	Degraded int64        `json:"degraded"`
}

// Stats snapshots per-shard counters and latency quantiles.
func (r *Router) Stats() Stats {
	s := Stats{
		Searches: r.searches.Load(),
		Degraded: r.degraded.Load(),
	}
	for i, st := range r.state {
		p50 := st.lat.Quantile(0.50)
		p95 := st.lat.Quantile(0.95)
		s.Shards = append(s.Shards, ShardStats{
			Shard:     i,
			Relations: int(r.relCount[i].Load()),
			Searches:  st.searches.Load(),
			Errors:    st.errors.Load(),
			Timeouts:  st.timeouts.Load(),
			P50MS:     float64(p50) / float64(time.Millisecond),
			P95MS:     float64(p95) / float64(time.Millisecond),
		})
	}
	return s
}
