package netcluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/obs"
)

// CoordinatorOptions configures a Coordinator.
type CoordinatorOptions struct {
	// Encode embeds a query string once; the raw vector fans out to the
	// replica sets, which never re-encode. Required.
	Encode func(query string) []float32
	// Order maps a relation ID to its global insertion rank; the merge
	// tie-breaks on it, keeping the networked ranking bit-identical to the
	// single engine's for exact search. Required.
	Order func(relID string) int
	// Exact declares that every set ranks exactly (ExS), so each set is
	// asked for k and not for a margin more (cluster.Options.Exact).
	Exact bool
	// Vnodes is the consistent-hash ring's virtual-node count per set;
	// default DefaultVnodes.
	Vnodes int
	// AttemptTimeout bounds each replica attempt (see GroupOptions).
	AttemptTimeout time.Duration
	// Transport carries every coordinator→shard request; nil means
	// http.DefaultTransport. Tests and the bench pass a *FaultInjector.
	Transport http.RoundTripper
	// Registry receives coordinator, router and group metrics; nil
	// disables them.
	Registry *obs.Registry
}

// Coordinator is the client-facing node of a networked cluster: it owns
// the consistent-hash ring mapping relations to replica sets, encodes each
// query once, fans raw vectors out to one replica per set (with failover
// inside each set), and merges per-set answers through a cluster.Router,
// whose comparator is the single engine's — so the networked ranking is
// bit-identical to the monolith's for exact search. The Router also
// contributes cost aggregation and batch fan-out; netcluster adds the
// wire, not a second query engine.
type Coordinator struct {
	ring   *Ring
	groups []*Group
	router *cluster.Router
}

// NewCoordinator builds a coordinator over replica sets: replicaSets[i]
// lists the base URLs of set i's members, each holding an identical copy
// of partition i. relationIDs lists the relations the sets hold at start;
// the ring places each, which seeds every set's relation count in Stats.
// At least one set with at least one member is required.
func NewCoordinator(replicaSets [][]string, relationIDs []string, opts CoordinatorOptions) (*Coordinator, error) {
	if len(replicaSets) == 0 {
		return nil, errors.New("netcluster: at least one replica set required")
	}
	if opts.Encode == nil {
		return nil, errors.New("netcluster: CoordinatorOptions.Encode is required")
	}
	if opts.Order == nil {
		return nil, errors.New("netcluster: CoordinatorOptions.Order is required")
	}
	if opts.Vnodes == 0 {
		opts.Vnodes = DefaultVnodes
	}
	ring, err := NewRing(len(replicaSets), opts.Vnodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{ring: ring}
	opts.Registry.SetHelps(MetricHelp)
	newClient := func(u string) *Client { return NewClient(u, opts.Transport) }
	routerShards := make([]cluster.Shard, len(replicaSets))
	relCounts := make([]int, len(replicaSets))
	for _, id := range relationIDs {
		relCounts[ring.Owner(id)]++
	}
	for i, urls := range replicaSets {
		g, err := NewGroup(i, urls, newClient, GroupOptions{
			AttemptTimeout: opts.AttemptTimeout,
			Registry:       opts.Registry,
		})
		if err != nil {
			return nil, err
		}
		c.groups = append(c.groups, g)
		routerShards[i] = g
	}
	// The Router sees one logical shard per replica set and never retries
	// it: the group bounds each attempt and fails over across replicas.
	router, err := cluster.NewRouter(routerShards, relCounts, cluster.Options{
		Exact:    opts.Exact,
		Encode:   opts.Encode,
		Order:    opts.Order,
		Registry: opts.Registry,
	})
	if err != nil {
		return nil, err
	}
	c.router = router
	return c, nil
}

// NumSets reports the replica-set (partition) count.
func (c *Coordinator) NumSets() int { return len(c.groups) }

// Ring exposes the placement ring, so a shard bootstrapping its partition
// applies the identical assignment by construction.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Search answers one query by networked scatter-gather, recording its
// spans on tr (the caller owns the root span and the trace's retention):
// every replica attempt carries the root's traceparent over the wire, and
// the winning replicas' remote span trees come back grafted under tr.
// Partial failure (a whole replica set down) degrades the Result; only
// every set failing — or the caller's context expiring — is an error.
func (c *Coordinator) Search(ctx context.Context, query string, k int, tr *obs.Trace) (*cluster.Result, error) {
	return c.router.SearchTraced(c.propagate(ctx, tr), query, k, tr)
}

// SearchBatch answers a block of queries with one networked fan-out per
// replica set (one failover call per set for the whole block), recording
// its spans on tr as Search does; the caller owns the root span and the
// trace's retention.
func (c *Coordinator) SearchBatch(ctx context.Context, items []cluster.BatchQuery, tr *obs.Trace) ([]*cluster.Result, error) {
	return c.router.SearchBatch(c.propagate(ctx, tr), items)
}

// propagate threads the trace down the stack: the live *Trace so replica
// groups can graft remote spans, and the root's span context so every
// wire request carries a traceparent parenting the shard's spans here.
func (c *Coordinator) propagate(ctx context.Context, tr *obs.Trace) context.Context {
	ctx = obs.ContextWithTrace(ctx, tr)
	return obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: tr.ID(), SpanID: tr.RootID(), Flags: tr.Flags()})
}

// WriteError is a partial write-path failure: some replicas of the owning
// set applied the mutation and others did not. The mutation is durable on
// the replicas that took it; the listed ones need repair (or a retry of
// the same idempotent call).
type WriteError struct {
	Op       string
	ID       string
	Set      int
	Failed   []string // replica URLs that failed
	Applied  int      // replicas that applied the write
	LastErr  error
	Replicas int
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("netcluster: %s %q on set %d applied on %d/%d replicas (failed: %s): %v",
		e.Op, e.ID, e.Set, e.Applied, e.Replicas, strings.Join(e.Failed, ", "), e.LastErr)
}

// Unwrap exposes the last replica error to errors.Is/As.
func (e *WriteError) Unwrap() error { return e.LastErr }

// writeAll applies one mutation to every replica of the owning set. Once
// any replica applied it, note (nil for an update) records the set's
// relation-count change; a partial application returns *WriteError naming
// the replicas needing repair.
func (c *Coordinator) writeAll(ctx context.Context, op, id string, note func(set int), apply func(context.Context, *Client) error) error {
	set := c.ring.Owner(id)
	g := c.groups[set]
	var (
		failed  []string
		lastErr error
		applied int
	)
	for _, cl := range g.clients {
		if err := apply(ctx, cl); err != nil {
			failed = append(failed, cl.URL())
			lastErr = err
			continue
		}
		applied++
	}
	if applied > 0 && note != nil {
		note(set)
	}
	if lastErr == nil {
		return nil
	}
	if applied == 0 {
		return fmt.Errorf("netcluster: %s %q failed on every replica of set %d: %w", op, id, set, lastErr)
	}
	return &WriteError{Op: op, ID: id, Set: set, Failed: failed, Applied: applied,
		LastErr: lastErr, Replicas: g.Replicas()}
}

// Add routes one new relation to its ring-owning set and ingests it on
// every replica of that set.
func (c *Coordinator) Add(ctx context.Context, rel Relation) error {
	return c.writeAll(ctx, "add", rel.ID, c.router.NoteAdd, func(ctx context.Context, cl *Client) error {
		return cl.AddRelation(ctx, rel)
	})
}

// Delete tombstones a relation on every replica of its owning set.
func (c *Coordinator) Delete(ctx context.Context, id string) error {
	return c.writeAll(ctx, "delete", id, c.router.NoteDelete, func(ctx context.Context, cl *Client) error {
		return cl.DeleteRelation(ctx, id)
	})
}

// Update replaces a relation's contents on every replica of its owning
// set.
func (c *Coordinator) Update(ctx context.Context, rel Relation) error {
	return c.writeAll(ctx, "update", rel.ID, nil, func(ctx context.Context, cl *Client) error {
		return cl.UpdateRelation(ctx, rel)
	})
}

// CoordinatorStats is the coordinator's health snapshot: the Router's
// federated view (per-set latency, relation counts, degradation) plus
// each replica set's failover counters.
type CoordinatorStats struct {
	Sets   int                `json:"sets"`
	Router cluster.Stats      `json:"router"`
	Groups []GroupStats       `json:"groups"`
	Ring   map[string]float64 `json:"ring_share,omitempty"`
}

// Stats snapshots router and replica-set health.
func (c *Coordinator) Stats() CoordinatorStats {
	s := CoordinatorStats{Sets: len(c.groups), Router: c.router.Stats()}
	for _, g := range c.groups {
		s.Groups = append(s.Groups, g.Stats())
	}
	return s
}
