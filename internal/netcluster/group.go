package netcluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// Metric series recorded by replica groups. Per-replica series carry
// set="<set>" and replica="<index>" labels; per-set series carry set.
const (
	// MetricAttempts counts shard attempts (primaries, retries and hedges).
	MetricAttempts = "semdisco_netcluster_attempts_total"
	// MetricReplicaErrors counts failed attempts per replica.
	MetricReplicaErrors = "semdisco_netcluster_replica_errors_total"
	// MetricRetries counts sequential failover retries after a replica
	// failed.
	MetricRetries = "semdisco_netcluster_retries_total"
	// MetricGroupHedges counts hedge attempts launched against a replica
	// running past the set's observed p95.
	MetricGroupHedges = "semdisco_netcluster_hedges_total"
	// MetricGroupHedgeWins counts hedges that beat the replica they raced.
	MetricGroupHedgeWins = "semdisco_netcluster_hedge_wins_total"
	// MetricSetDown counts searches where every replica of a set failed —
	// the degraded answers the coordinator served.
	MetricSetDown = "semdisco_netcluster_set_down_total"
)

// MetricHelp maps the group metrics to their Prometheus HELP texts.
var MetricHelp = map[string]string{
	MetricAttempts:       "Replica attempts: primaries, failover retries and hedges.",
	MetricReplicaErrors:  "Failed replica attempts.",
	MetricRetries:        "Sequential failover retries after a replica failure.",
	MetricGroupHedges:    "Hedge attempts raced across replicas of a set.",
	MetricGroupHedgeWins: "Replica hedges that beat the attempt they raced.",
	MetricSetDown:        "Searches in which an entire replica set failed.",
}

// GroupOptions tunes one replica set's failover behavior.
type GroupOptions struct {
	// AttemptTimeout bounds each replica attempt; an expired attempt fails
	// over to the next replica. 0 leaves attempts bounded only by the
	// query's own deadline.
	AttemptTimeout time.Duration
	// Hedge races a second replica against an attempt running past the
	// set's observed p95 latency (floored at 2ms, armed after 16 answers) —
	// hedging across replicas, not a retry of the same process, so a wedged
	// replica cannot also absorb the hedge.
	Hedge bool
	// Registry receives the group's metrics; nil disables them.
	Registry *obs.Registry
}

// replicaState is one replica's health counters.
type replicaState struct {
	attempts atomic.Int64
	errors   atomic.Int64
}

// Group is one replica set presented to the cluster Router as a single
// logical Shard: R servers holding identical copies of one partition.
// SearchEncoded tries replicas with per-attempt timeouts, hedges a second
// replica against a slow attempt, retries failures on the next replica
// with exponential backoff plus jitter, and only fails — degrading the
// federated answer — when every replica of the set has failed.
type Group struct {
	set     int
	clients []*Client
	// policy is the Group's configuration of cluster.Race: one attempt per
	// replica, each under the attempt timeout, failing over on anything but
	// a request error (DESIGN.md §9).
	policy cluster.RacePolicy
	reg    *obs.Registry
	state  []*replicaState
	// rr rotates the preferred replica so read load spreads across the
	// set instead of hammering replica 0.
	rr        atomic.Uint64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	retries   atomic.Int64
	setDown   atomic.Int64
	// lat is the set's recent winning-attempt latency, the p95 estimator
	// behind the hedge trigger.
	lat cluster.Window
}

// NewGroup builds a replica set over shard base URLs sharing one
// transport.
func NewGroup(set int, urls []string, rt func(string) *Client, opts GroupOptions) (*Group, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("netcluster: replica set %d has no members", set)
	}
	g := &Group{
		set: set,
		policy: cluster.RacePolicy{
			Targets:        len(urls),
			AttemptTimeout: opts.AttemptTimeout,
			Hedge:          opts.Hedge,
			HedgeFloor:     2 * time.Millisecond,
			HedgeWarmup:    16,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     250 * time.Millisecond,
			Final:          requestError,
		},
		reg:   opts.Registry,
		state: make([]*replicaState, len(urls)),
	}
	for i, u := range urls {
		g.clients = append(g.clients, rt(u))
		g.state[i] = &replicaState{}
	}
	return g, nil
}

// requestError reports a 4xx: the request itself is bad, every replica
// would answer the same, so failing over just multiplies the damage.
func requestError(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && !re.Retryable()
}

// Replicas reports the set's member count.
func (g *Group) Replicas() int { return len(g.clients) }

// reply is one replica's answer to an encoded search, single or batched.
type reply struct {
	ms    [][]core.Match
	costs []obs.CostReport
	spans []obs.SpanRecord
}

// race runs one remote call through the replica-failover race: the
// preferred replica first (rotating per call), a hedge or a failover going
// to the next untried one. It returns an error only when every replica
// failed, the request itself was bad, or the query's own context died. The
// winner's remote spans are grafted into the trace ctx carries, and a hedge
// is reported to the Router whose shard call this is.
func (g *Group) race(ctx context.Context, call func(context.Context, *Client) (reply, error)) (reply, error) {
	n := len(g.clients)
	first := int(g.rr.Add(1)-1) % n
	set := strconv.Itoa(g.set)
	rep, out, err := cluster.Race(ctx, g.policy, &g.lat, func(actx context.Context, attempt int, _ bool) (reply, error) {
		idx := (first + attempt) % n
		replica := strconv.Itoa(idx)
		g.state[idx].attempts.Add(1)
		g.reg.Counter(obs.L(MetricAttempts, "set", set, "replica", replica)).Inc()
		rep, err := call(actx, g.clients[idx])
		if err != nil && ctx.Err() == nil { // a query that gave up is not the replica's failure
			g.state[idx].errors.Add(1)
			g.reg.Counter(obs.L(MetricReplicaErrors, "set", set, "replica", replica)).Inc()
		}
		return rep, err
	})
	if out.Retries > 0 {
		g.retries.Add(int64(out.Retries))
		g.reg.Counter(obs.L(MetricRetries, "set", set)).Add(int64(out.Retries))
	}
	if out.Hedged {
		g.hedges.Add(1)
		g.reg.Counter(obs.L(MetricGroupHedges, "set", set)).Inc()
		cluster.NoteHedge(ctx)
	}
	if out.HedgeWon {
		g.hedgeWins.Add(1)
		g.reg.Counter(obs.L(MetricGroupHedgeWins, "set", set)).Inc()
	}
	switch {
	case err == nil:
		obs.TraceFrom(ctx).Adopt(rep.spans)
		return rep, nil
	case ctx.Err() != nil || requestError(err):
		return reply{}, err
	}
	g.setDown.Add(1)
	g.reg.Counter(obs.L(MetricSetDown, "set", set)).Inc()
	return reply{}, fmt.Errorf("netcluster: replica set %d down (%d replicas failed): %w", g.set, n, err)
}

// SearchEncoded implements cluster.Shard: one pre-encoded query answered
// by whichever replica wins the failover race. The remote cost report is
// folded into the accumulator ctx carries (the Router's per-shard Cost).
func (g *Group) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	rep, err := g.race(ctx, func(actx context.Context, cl *Client) (reply, error) {
		ms, cost, spans, err := cl.SearchEncoded(actx, q, k)
		return reply{ms: [][]core.Match{ms}, costs: []obs.CostReport{cost}, spans: spans}, err
	})
	if err != nil {
		return nil, err
	}
	obs.CostFrom(ctx).AddReport(rep.costs[0])
	return rep.ms[0], nil
}

// SearchEncodedBatch implements cluster.BatchShard: the whole block rides
// one failover race, so a straggling replica costs one hedge for the
// batch, not one per query.
func (g *Group) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	rep, err := g.race(ctx, func(actx context.Context, cl *Client) (reply, error) {
		ms, reps, spans, err := cl.SearchEncodedBatch(actx, qs, ks)
		return reply{ms: ms, costs: reps, spans: spans}, err
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.costs {
		if i < len(costs) {
			costs[i].AddReport(rep.costs[i])
		}
	}
	return rep.ms, nil
}

// ReplicaStats is one replica's health snapshot.
type ReplicaStats struct {
	URL      string `json:"url"`
	Attempts int64  `json:"attempts"`
	Errors   int64  `json:"errors"`
}

// GroupStats is one replica set's health snapshot.
type GroupStats struct {
	Set       int            `json:"set"`
	Replicas  []ReplicaStats `json:"replicas"`
	Hedges    int64          `json:"hedges"`
	HedgeWins int64          `json:"hedge_wins"`
	Retries   int64          `json:"retries"`
	SetDown   int64          `json:"set_down"`
	P50MS     float64        `json:"p50_ms"`
	P95MS     float64        `json:"p95_ms"`
}

// Stats snapshots the set's failover counters and attempt latency.
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		Set:       g.set,
		Hedges:    g.hedges.Load(),
		HedgeWins: g.hedgeWins.Load(),
		Retries:   g.retries.Load(),
		SetDown:   g.setDown.Load(),
	}
	s.P50MS = float64(g.lat.Quantile(0.50)) / float64(time.Millisecond)
	s.P95MS = float64(g.lat.Quantile(0.95)) / float64(time.Millisecond)
	for i, c := range g.clients {
		s.Replicas = append(s.Replicas, ReplicaStats{
			URL:      c.URL(),
			Attempts: g.state[i].attempts.Load(),
			Errors:   g.state[i].errors.Load(),
		})
	}
	return s
}
