package semdisco

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/embed"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
)

// EncodedBackend exposes the engine's encoded-search path — what a shard
// server mounts behind the internal wire endpoints (see
// netcluster.ShardHandler). The backend ranks pre-encoded vectors against
// this engine's partition; it is the same code path the engine's own Do
// runs, which is what keeps the networked ranking identical.
func (e *Engine) EncodedBackend() netcluster.ShardBackend { return e.store }

// Dim reports the engine's embedding dimensionality.
func (e *Engine) Dim() int { return e.model.Dim() }

// NetShardConfig parameterizes NewNetShard: the shared engine
// configuration plus this server's position in the replica topology.
type NetShardConfig struct {
	Config
	// Sets is the replica-set (partition) count of the whole deployment.
	Sets int
	// Set is this server's set index in [0, Sets).
	Set int
	// Vnodes is the placement ring's virtual-node count per set; it must
	// match the coordinator's (0 means the shared default).
	Vnodes int
}

// NewNetShard builds the engine one shard server of a networked cluster
// hosts: the full federation's IDF statistics feed the encoder — so the
// embedding space is identical on every shard and on the coordinator — but
// only the relations the placement ring assigns to cfg.Set are embedded
// and indexed. Every replica of a set runs this with the same (Sets, Set,
// Vnodes) and holds an identical partition copy.
func NewNetShard(fed *Federation, cfg NetShardConfig) (*Engine, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	if cfg.Sets < 1 {
		return nil, fmt.Errorf("semdisco: invalid set count %d", cfg.Sets)
	}
	if cfg.Set < 0 || cfg.Set >= cfg.Sets {
		return nil, fmt.Errorf("semdisco: set %d out of range [0,%d)", cfg.Set, cfg.Sets)
	}
	ring, err := netcluster.NewRing(cfg.Sets, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.Config.IDF == nil {
		// Full-federation statistics, partition-only index: a query vector
		// must be the same no matter which shard scores it.
		cfg.Config.IDF = statsIDF(federationStats(fed))
	}
	part := NewFederation()
	for _, r := range fed.Relations() {
		if ring.Owner(r.ID) != cfg.Set {
			continue
		}
		if err := part.Add(r); err != nil {
			return nil, fmt.Errorf("semdisco: partitioning set %d: %w", cfg.Set, err)
		}
	}
	if part.Len() == 0 {
		return nil, fmt.Errorf("semdisco: the ring assigns no relations to set %d of %d; use fewer sets for this corpus", cfg.Set, cfg.Sets)
	}
	eng, err := Open(part, cfg.Config)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// NetCoordinatorConfig parameterizes NewNetCoordinator.
type NetCoordinatorConfig struct {
	// Config supplies the encoder parameters (Dim, Seed, Lexicon, IDF —
	// they must match the shards'), the method, and the tracing/SLO
	// subsystems' tuning. The method sets each set's fetch width: ExS sets
	// are asked for k, approximate ones for a few more.
	Config
	// Vnodes is the placement ring's virtual-node count per set; it must
	// match the shards'.
	Vnodes int
	// AttemptTimeout bounds each replica attempt; an expired attempt fails
	// over to the next replica of the set. 0 leaves attempts bounded only
	// by the query's deadline.
	AttemptTimeout time.Duration
	// Transport carries coordinator→shard requests; nil means
	// http.DefaultTransport. Tests and benches pass a
	// *netcluster.FaultInjector.
	Transport http.RoundTripper
}

// NetCoordinator is the client-facing node of a networked cluster,
// built from the same federation the shards loaded: it owns the shared
// encoder (queries are embedded exactly once, raw vectors fan out over
// the wire) and the global insertion order the merge tie-breaks on, and
// routes every search and mutation through a netcluster.Coordinator.
type NetCoordinator struct {
	telemetry
	coord *netcluster.Coordinator
	model *embed.Model
	// orderMu guards order/nextOrder: mutations write, merges read.
	orderMu   sync.RWMutex
	order     map[string]int
	nextOrder int
}

// NewNetCoordinator builds a coordinator over replica sets:
// replicaSets[i] lists the base URLs of set i's members, each a shard
// server started with NewNetShard(fed, {Sets: len(replicaSets), Set: i}).
// fed must be the same federation (same relations, same insertion order)
// the shards partitioned, so encoder statistics and merge order agree.
func NewNetCoordinator(fed *Federation, replicaSets [][]string, cfg NetCoordinatorConfig) (*NetCoordinator, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	idf := cfg.IDF
	if idf == nil {
		idf = statsIDF(federationStats(fed))
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
	model.SetObserver(reg)

	order := make(map[string]int, fed.Len())
	ids := make([]string, 0, fed.Len())
	for i, r := range fed.Relations() {
		order[r.ID] = i
		ids = append(ids, r.ID)
	}
	nc := &NetCoordinator{
		telemetry: newTelemetry(cfg.Method, "coordinator_search", cluster.MetricSearchSeconds,
			reg, cfg.Tracing, cfg.SLO),
		model:     model,
		order:     order,
		nextOrder: fed.Len(),
	}
	coord, err := netcluster.NewCoordinator(replicaSets, ids, netcluster.CoordinatorOptions{
		Encode: model.Encode,
		Order: func(relID string) int {
			nc.orderMu.RLock()
			o, ok := nc.order[relID]
			nc.orderMu.RUnlock()
			if ok {
				return o
			}
			return int(^uint(0) >> 1) // unknown IDs tie-break last
		},
		Exact:          cfg.Method == ExS,
		Vnodes:         cfg.Vnodes,
		AttemptTimeout: cfg.AttemptTimeout,
		Transport:      cfg.Transport,
		Registry:       reg,
	})
	if err != nil {
		return nil, fmt.Errorf("semdisco: %w", err)
	}
	nc.coord = coord
	return nc, nil
}

// Do implements Backend: the query is encoded once, the raw vector fans
// out to one replica per set (with failover and per-attempt timeouts
// inside each set), and per-set answers merge — for ExS
// bit-identically to a single engine. A whole replica set failing
// degrades the Response; only every set failing — or ctx expiring —
// returns an error.
// The retained trace holds the federated span tree with every winning
// replica's remote spans grafted in. Source filters and feedback answer
// ErrUnsupported.
func (nc *NetCoordinator) Do(ctx context.Context, req Request) (*Response, error) {
	if len(req.Sources) > 0 || req.Feedback {
		return nil, ErrUnsupported
	}
	return nc.observe(ctx, req, func(ctx context.Context, tr *obs.Trace, res *ClusterResult) error {
		r, err := nc.coord.Search(ctx, req.Query, req.K, tr)
		if r != nil {
			*res = *r
		}
		return err
	})
}

// SearchContext is Do for a bare query.
func (nc *NetCoordinator) SearchContext(ctx context.Context, query string, k int) (*ClusterResult, error) {
	return resultOf(nc.Do(ctx, Request{Query: query, K: k}))
}

// DoBatch implements Backend with one networked fan-out per replica set.
func (nc *NetCoordinator) DoBatch(ctx context.Context, queries []Query) ([]*Response, error) {
	return nc.observeBatch(ctx, queries, func(ctx context.Context, tr *obs.Trace) ([]*ClusterResult, error) {
		return nc.coord.SearchBatch(ctx, batchItems(queries), tr)
	})
}

// AddRelation implements Backend: the relation is routed to its
// ring-owning set, ingested on every replica of that set, and appended to
// the global merge order.
func (nc *NetCoordinator) AddRelation(ctx context.Context, r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if err := nc.coord.Add(ctx, toWireRelation(r)); err != nil {
		return err
	}
	nc.orderMu.Lock()
	if _, ok := nc.order[r.ID]; !ok {
		nc.order[r.ID] = nc.nextOrder
		nc.nextOrder++
	}
	nc.orderMu.Unlock()
	return nil
}

// Add is AddRelation.
func (nc *NetCoordinator) Add(ctx context.Context, r *Relation) error { return nc.AddRelation(ctx, r) }

// DeleteRelation implements Backend: the relation is tombstoned on every
// replica of its owning set.
func (nc *NetCoordinator) DeleteRelation(ctx context.Context, id string) error {
	if err := nc.coord.Delete(ctx, id); err != nil {
		return err
	}
	nc.orderMu.Lock()
	delete(nc.order, id)
	nc.orderMu.Unlock()
	return nil
}

// UpdateRelation implements Backend: the relation's contents are replaced
// on every replica of its owning set and it moves to the end of the global
// merge order, matching single-engine semantics.
func (nc *NetCoordinator) UpdateRelation(ctx context.Context, r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if err := nc.coord.Update(ctx, toWireRelation(r)); err != nil {
		return err
	}
	nc.orderMu.Lock()
	nc.order[r.ID] = nc.nextOrder
	nc.nextOrder++
	nc.orderMu.Unlock()
	return nil
}

// toWireRelation converts a relation to its wire form for the write path.
func toWireRelation(r *Relation) netcluster.Relation {
	return netcluster.Relation{
		ID:           r.ID,
		Source:       r.Source,
		PageTitle:    r.PageTitle,
		SectionTitle: r.SectionTitle,
		Caption:      r.Caption,
		Columns:      r.Columns,
		Rows:         r.Rows,
	}
}

// NumSets reports the replica-set (partition) count.
func (nc *NetCoordinator) NumSets() int { return nc.coord.NumSets() }

// NumRelations reports the live relation count in the global merge order.
func (nc *NetCoordinator) NumRelations() int {
	nc.orderMu.RLock()
	defer nc.orderMu.RUnlock()
	return len(nc.order)
}

// Embed exposes the coordinator's encoder — the exact vectors it fans out.
func (nc *NetCoordinator) Embed(text string) []float32 { return nc.model.Encode(text) }

// Stats snapshots the coordinator's health: the federated router view plus
// each replica set's failover counters.
func (nc *NetCoordinator) Stats() netcluster.CoordinatorStats { return nc.coord.Stats() }

// batchItems converts public batch queries to the router's form.
func batchItems(queries []Query) []cluster.BatchQuery {
	items := make([]cluster.BatchQuery, len(queries))
	for i, q := range queries {
		items[i] = cluster.BatchQuery{Query: q.Text, K: q.K}
	}
	return items
}
