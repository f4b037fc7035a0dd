package semdisco

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/text"
)

// ShardPolicy selects how relations are partitioned across shards.
type ShardPolicy = cluster.Policy

const (
	// ShardByHash assigns relations by a stable hash of their ID.
	ShardByHash = cluster.PolicyHash
	// ShardRoundRobin deals relations out evenly and routes later Adds to
	// the smallest shard.
	ShardRoundRobin = cluster.PolicyRoundRobin
)

// ClusterResult is a federated query answer: the merged top-k plus the
// degradation metadata (which shards failed, whether hedges launched,
// whether the answer came from cache).
type ClusterResult = cluster.Result

// ClusterStats is a Cluster's health snapshot: per-shard counters and
// latency quantiles, cache effectiveness, degradation counts.
type ClusterStats = cluster.Stats

// ShardStats is one shard's slice of ClusterStats.
type ShardStats = cluster.ShardStats

// ClusterConfig parameterizes NewCluster. The embedded Config applies to
// every shard's engine; all shards share one encoder whose IDF statistics
// come from the full federation, so a query vector is identical no matter
// which shard scores it.
type ClusterConfig struct {
	Config
	// Shards is the partition count; default 4.
	Shards int
	// Policy selects the partitioning scheme; default ShardByHash.
	Policy ShardPolicy
	// Slack widens each shard's fetch to k+Slack before the merge;
	// default 8.
	Slack int
	// ShardTimeout bounds each shard's search; an expired shard is cut off
	// mid-scan and the query degrades to the remaining shards. 0 disables.
	ShardTimeout time.Duration
	// Hedge races a second attempt against a shard running past its
	// observed p95 latency.
	Hedge bool
	// CacheSize bounds the query-result LRU (entries); 0 disables caching.
	CacheSize int
}

// Cluster is a sharded federation index: N per-partition segment stores
// behind a scatter-gather router with per-shard deadlines, hedged retries
// and partial-result degradation. Search, Add, Delete and Update are all
// safe for concurrent use: mutations land in the owning shard's mutable
// segment (or tombstone in place) and fence the router's result cache and
// coalescer.
type Cluster struct {
	telemetry
	cfg    ClusterConfig
	model  *embed.Model
	stats  *text.CorpusStats
	shards []*core.SegmentStore // one segment store per partition
	router *cluster.Router
	// orderMu guards order/owner/nextOrder: mutations write them, the
	// router's merge tie-break reads order on every query.
	orderMu sync.RWMutex
	// order maps relation ID to its global insertion rank; the router's
	// merge tie-breaks on it so the federated ranking matches the
	// single-engine ranking exactly for exact methods.
	order map[string]int
	// owner maps a live relation ID to the shard holding it — required for
	// Delete/Update, whose ID may not route to its build-time shard under
	// round-robin.
	owner     map[string]int
	nextOrder int
}

// NewCluster partitions the federation into cfg.Shards slices, builds one
// engine per slice (sharing a single encoder fit to the full federation),
// and wires them behind a scatter-gather router. For ExS the cluster's
// ranking is bit-identical to a single engine's; approximate methods
// (ANNS, CTS) trade exactness per shard the same way they do monolithic.
func NewCluster(fed *Federation, cfg ClusterConfig) (*Cluster, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("semdisco: invalid shard count %d", cfg.Shards)
	}
	if cfg.Shards > fed.Len() {
		return nil, fmt.Errorf("semdisco: %d shards for %d relations; shards must not exceed relations", cfg.Shards, fed.Len())
	}

	idf := cfg.IDF
	var stats *text.CorpusStats
	if idf == nil {
		stats = federationStats(fed)
		idf = statsIDF(stats)
	}
	model := embed.New(embed.Config{
		Dim:     cfg.Dim,
		Seed:    cfg.Seed,
		Lexicon: cfg.Lexicon,
		IDF:     idf,
	})
	var reg *obs.Registry
	if !cfg.DisableMetrics {
		reg = obs.NewRegistry()
	}
	reg.SetHelps(core.MetricHelp)
	model.SetObserver(reg)

	// Partition in federation insertion order so each shard preserves the
	// relative order of its relations — the invariant the merge's
	// tie-breaking relies on.
	parts := make([]*Federation, cfg.Shards)
	for i := range parts {
		parts[i] = NewFederation()
	}
	order := make(map[string]int, fed.Len())
	owner := make(map[string]int, fed.Len())
	for i, r := range fed.Relations() {
		var shard int
		switch cfg.Policy {
		case ShardRoundRobin:
			shard = i % cfg.Shards
		default:
			shard = cluster.HashShard(r.ID, cfg.Shards)
		}
		if err := parts[shard].Add(r); err != nil {
			return nil, fmt.Errorf("semdisco: partitioning: %w", err)
		}
		order[r.ID] = i
		owner[r.ID] = shard
	}
	for i, p := range parts {
		if p.Len() == 0 {
			return nil, fmt.Errorf("semdisco: shard %d would be empty under the %v policy; use fewer shards or ShardRoundRobin", i, cfg.Policy)
		}
	}

	c := &Cluster{
		telemetry: clusterTelemetry(cfg.Method, reg, cfg.Tracing, cfg.SLO),
		cfg:       cfg,
		model:     model,
		stats:     stats,
		order:     order,
		owner:     owner,
		nextOrder: fed.Len(),
	}
	relCounts := make([]int, cfg.Shards)
	routerShards := make([]cluster.Shard, cfg.Shards)
	for i, p := range parts {
		sh, err := buildClusterShard(cfg.Config, p, model, reg)
		if err != nil {
			return nil, fmt.Errorf("semdisco: building shard %d: %w", i, err)
		}
		c.shards = append(c.shards, sh)
		relCounts[i] = p.Len()
		routerShards[i] = sh
	}
	router, err := cluster.NewRouter(routerShards, relCounts, c.routerOptions())
	if err != nil {
		return nil, fmt.Errorf("semdisco: %w", err)
	}
	c.router = router
	return c, nil
}

// buildClusterShard embeds one partition with the shared model and wraps
// it in a segment store, so every shard supports mutation and background
// compaction independently.
func buildClusterShard(cfg Config, part *Federation, model *embed.Model, reg *obs.Registry) (*core.SegmentStore, error) {
	emb := core.EmbedFederation(part, model)
	emb.Obs = reg
	s, err := buildSearcher(cfg, emb)
	if err != nil {
		return nil, err
	}
	return core.NewSegmentStore(emb, s, segmentStoreOptions(cfg)), nil
}

// routerOptions translates the public config into the router's options.
func (c *Cluster) routerOptions() cluster.Options {
	return cluster.Options{
		Policy:       c.cfg.Policy,
		Slack:        c.cfg.Slack,
		ShardTimeout: c.cfg.ShardTimeout,
		Hedge:        c.cfg.Hedge,
		Method:       c.cfg.Method.String(),
		Encode:       c.model.Encode,
		Order: func(relID string) int {
			c.orderMu.RLock()
			o, ok := c.order[relID]
			c.orderMu.RUnlock()
			if ok {
				return o
			}
			return int(^uint(0) >> 1) // unknown IDs tie-break last
		},
		CacheSize: c.cfg.CacheSize,
		Registry:  c.reg,
		SegmentInfo: func(shard int) (int, int) {
			st := c.shards[shard].Stats()
			return st.Segments, st.DeadRelations
		},
	}
}

// clusterTelemetry is the bookkeeping of a sharded cluster.
func clusterTelemetry(m Method, reg *obs.Registry, tc TracingConfig, sc SLOConfig) telemetry {
	return telemetry{method: m, span: "cluster_search", latency: cluster.MetricSearchSeconds, reg: reg,
		traces: newTraceStore(tc), slo: newSLOEngine(sc, reg)}
}

// Do implements Backend by scatter-gather over all shards: the query is
// encoded once, every shard ranks its partition concurrently (the context
// is threaded into every shard's inner scan loops), and the per-shard
// top-(k+Slack) lists merge into the global top-k. A failed or timed-out
// shard degrades the response (Degraded, ShardErrors) instead of failing
// the query; only all shards failing — or the caller's own context
// expiring — returns an error. The span tree holds the federated stages:
// encode, scatter (one child per shard attempt, hedges included), merge.
// Interesting outcomes (degraded, hedged, errored, slow) land in the trace
// store under Response.TraceID. Source filters and
// feedback are not federated: they answer ErrUnsupported.
func (c *Cluster) Do(ctx context.Context, req Request) (*Response, error) {
	if len(req.Sources) > 0 || req.Feedback {
		return nil, ErrUnsupported
	}
	return c.observe(ctx, req, func(ctx context.Context, tr *obs.Trace) (*ClusterResult, error) {
		return c.router.SearchTraced(ctx, req.Query, req.K, tr)
	})
}

// Search is Do for a bare query under a background context.
func (c *Cluster) Search(query string, k int) (*ClusterResult, error) {
	return resultOf(c.Do(context.Background(), Request{Query: query, K: k}))
}

// AddRelation implements Backend: the relation is routed to a shard — its
// hash bucket under ShardByHash, the currently smallest shard under
// ShardRoundRobin — where it lands in the shard store's mutable segment.
// The router's result cache and coalescer are fenced.
func (c *Cluster) AddRelation(_ context.Context, r *Relation) error {
	c.orderMu.Lock()
	if _, dup := c.owner[r.ID]; dup {
		c.orderMu.Unlock()
		return fmt.Errorf("semdisco: relation %q already indexed", r.ID)
	}
	shard := c.router.Route(r.ID)
	if err := c.shards[shard].Add(r); err != nil {
		c.orderMu.Unlock()
		return err
	}
	c.order[r.ID] = c.nextOrder
	c.owner[r.ID] = shard
	c.nextOrder++
	c.orderMu.Unlock()
	c.router.NoteAdd(shard)
	return nil
}

// DeleteRelation implements Backend: the relation is tombstoned on its
// owning shard and stops appearing in federated results immediately, the
// router's result cache and coalescer are fenced, and the shard's next
// compaction reclaims the space.
func (c *Cluster) DeleteRelation(_ context.Context, relationName string) error {
	c.orderMu.Lock()
	shard, ok := c.owner[relationName]
	if !ok {
		c.orderMu.Unlock()
		return fmt.Errorf("semdisco: relation %q not found", relationName)
	}
	if err := c.shards[shard].Delete(relationName); err != nil {
		c.orderMu.Unlock()
		return err
	}
	delete(c.owner, relationName)
	delete(c.order, relationName)
	c.orderMu.Unlock()
	c.router.NoteDelete(shard)
	return nil
}

// UpdateRelation implements Backend: the relation's contents are replaced
// on its owning shard (it does not migrate shards) and it moves to the end
// of the global merge order, matching single-engine semantics.
func (c *Cluster) UpdateRelation(_ context.Context, r *Relation) error {
	c.orderMu.Lock()
	shard, ok := c.owner[r.ID]
	if !ok {
		c.orderMu.Unlock()
		return fmt.Errorf("semdisco: relation %q not found", r.ID)
	}
	if err := c.shards[shard].Update(r); err != nil {
		c.orderMu.Unlock()
		return err
	}
	c.order[r.ID] = c.nextOrder
	c.nextOrder++
	c.orderMu.Unlock()
	c.router.NoteUpdate(shard)
	return nil
}

// Compact forces a full compaction on every shard, sequentially.
func (c *Cluster) Compact() error {
	for i := range c.shards {
		if err := c.shards[i].Compact(); err != nil {
			return fmt.Errorf("semdisco: compacting shard %d: %w", i, err)
		}
	}
	return nil
}

// CompactionCheck runs one maintenance pass on every shard: seal
// over-threshold mutable segments, build pending indexes, compact where a
// policy trigger fires.
func (c *Cluster) CompactionCheck() error {
	for i := range c.shards {
		if err := c.shards[i].Maintain(); err != nil {
			return fmt.Errorf("semdisco: maintaining shard %d: %w", i, err)
		}
	}
	return nil
}

// NumShards reports the cluster's shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// NumRelations reports the total live relation count across shards.
func (c *Cluster) NumRelations() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.NumLiveRelations()
	}
	return n
}

// Stats snapshots per-shard health: searches, errors, timeouts, hedges and
// latency quantiles per shard, plus cache and degradation counters.
func (c *Cluster) Stats() ClusterStats { return c.router.Stats() }

// clusterPersist is the gob envelope of a saved cluster: the shared
// engine configuration, the full-federation IDF statistics, the global
// order map the merge tie-breaks on, and one embedded-corpus blob per
// shard. Index structures are rebuilt deterministically on load.
type clusterPersist struct {
	Version      int
	Method       Method
	Dim          int
	Seed         int64
	Threshold    float32
	ExS          exsPersist
	ANNS         ANNSOptions
	CTS          CTSOptions
	Lexicon      *Lexicon
	Stats        *text.CorpusStats
	Policy       int
	Slack        int
	ShardTimeout time.Duration
	Hedge        bool
	CacheSize    int
	Order        map[string]int
	NextOrder    int
	// EmbBlobs carries one monolithic embedding per shard; version 1 only.
	EmbBlobs [][]byte
	// StoreBlobs carries one segment-store image per shard (version 2),
	// and Owner the live relation → shard map.
	StoreBlobs [][]byte
	Owner      map[string]int
	Segments   SegmentsConfig
}

// Save writes the cluster so LoadCluster can restore it without
// re-encoding any value: shard assignment, global merge order and every
// shard's vectors persist; the per-shard index structures are rebuilt
// deterministically from the stored vectors and the original seed.
// Clusters configured with a custom IDF function cannot be saved.
func (c *Cluster) Save(w io.Writer) error {
	if c.cfg.IDF != nil {
		return fmt.Errorf("semdisco: clusters with a custom IDF function cannot be saved")
	}
	blobs := make([][]byte, len(c.shards))
	for i, sh := range c.shards {
		var buf bytes.Buffer
		if err := sh.Persist(&buf); err != nil {
			return fmt.Errorf("semdisco: save shard %d: %w", i, err)
		}
		blobs[i] = buf.Bytes()
	}
	c.orderMu.RLock()
	order := make(map[string]int, len(c.order))
	for k, v := range c.order {
		order[k] = v
	}
	owner := make(map[string]int, len(c.owner))
	for k, v := range c.owner {
		owner[k] = v
	}
	nextOrder := c.nextOrder
	c.orderMu.RUnlock()
	return gob.NewEncoder(w).Encode(clusterPersist{
		Version:      2,
		Method:       c.cfg.Method,
		Dim:          c.cfg.Dim,
		Seed:         c.cfg.Seed,
		Threshold:    c.cfg.Threshold,
		ExS:          persistExS(c.cfg.ExS),
		ANNS:         c.cfg.ANNS,
		CTS:          c.cfg.CTS,
		Lexicon:      c.cfg.Lexicon,
		Stats:        c.stats,
		Policy:       int(c.cfg.Policy),
		Slack:        c.cfg.Slack,
		ShardTimeout: c.cfg.ShardTimeout,
		Hedge:        c.cfg.Hedge,
		CacheSize:    c.cfg.CacheSize,
		Order:        order,
		NextOrder:    nextOrder,
		StoreBlobs:   blobs,
		Owner:        owner,
		Segments:     c.cfg.Segments,
	})
}

// LoadCluster restores a cluster written by Save: same shard assignment,
// same merge order, identical search results.
func LoadCluster(r io.Reader) (*Cluster, error) {
	var p clusterPersist
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("semdisco: load cluster: %w", err)
	}
	if p.Version != 1 && p.Version != 2 {
		return nil, fmt.Errorf("semdisco: unsupported cluster version %d", p.Version)
	}
	exs, err := p.ExS.options()
	if err != nil {
		return nil, fmt.Errorf("semdisco: load cluster: %w", err)
	}
	blobs := p.StoreBlobs
	if p.Version == 1 {
		blobs = p.EmbBlobs
	}
	cfg := ClusterConfig{
		Config: Config{
			Method:    p.Method,
			Dim:       p.Dim,
			Seed:      p.Seed,
			Threshold: p.Threshold,
			ExS:       exs,
			ANNS:      p.ANNS,
			CTS:       p.CTS,
			Lexicon:   p.Lexicon,
			Segments:  p.Segments,
		},
		Shards:       len(blobs),
		Policy:       ShardPolicy(p.Policy),
		Slack:        p.Slack,
		ShardTimeout: p.ShardTimeout,
		Hedge:        p.Hedge,
		CacheSize:    p.CacheSize,
	}
	var idf func(string) float64
	if p.Stats != nil {
		idf = statsIDF(p.Stats)
	}
	model := embed.New(embed.Config{
		Dim:     cfg.Dim,
		Seed:    cfg.Seed,
		Lexicon: cfg.Lexicon,
		IDF:     idf,
	})
	reg := obs.NewRegistry()
	reg.SetHelps(core.MetricHelp)
	model.SetObserver(reg)
	if p.Order == nil {
		p.Order = make(map[string]int)
	}
	if p.Owner == nil {
		p.Owner = make(map[string]int)
	}
	c := &Cluster{
		telemetry: clusterTelemetry(cfg.Method, reg, TracingConfig{}, SLOConfig{}),
		cfg:       cfg,
		model:     model,
		stats:     p.Stats,
		order:     p.Order,
		owner:     p.Owner,
		nextOrder: p.NextOrder,
	}
	relCounts := make([]int, len(blobs))
	routerShards := make([]cluster.Shard, len(blobs))
	for i, blob := range blobs {
		var store *core.SegmentStore
		if p.Version == 1 {
			emb, err := core.RestoreEmbedded(bytes.NewReader(blob), model)
			if err != nil {
				return nil, fmt.Errorf("semdisco: restore shard %d: %w", i, err)
			}
			emb.Obs = reg
			s, err := buildSearcher(cfg.Config, emb)
			if err != nil {
				return nil, fmt.Errorf("semdisco: rebuild shard %d: %w", i, err)
			}
			store = core.NewSegmentStore(emb, s, segmentStoreOptions(cfg.Config))
		} else {
			var err error
			store, err = core.RestoreSegmentStore(bytes.NewReader(blob), model, reg, segmentStoreOptions(cfg.Config))
			if err != nil {
				return nil, fmt.Errorf("semdisco: restore shard %d: %w", i, err)
			}
		}
		// v1 images predate the owner map; rebuild it from the shard's
		// live relations.
		if p.Version == 1 {
			for _, id := range store.LiveRelations() {
				c.owner[id] = i
			}
		}
		c.shards = append(c.shards, store)
		relCounts[i] = store.NumLiveRelations()
		routerShards[i] = store
	}
	router, err := cluster.NewRouter(routerShards, relCounts, c.routerOptions())
	if err != nil {
		return nil, fmt.Errorf("semdisco: %w", err)
	}
	c.router = router
	return c, nil
}
