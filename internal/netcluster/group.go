package netcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// MetricAttempts counts shard attempts (primaries and retries).
	MetricAttempts = "semdisco_netcluster_attempts_total"
	// MetricReplicaErrors counts failed attempts per replica.
	MetricReplicaErrors = "semdisco_netcluster_replica_errors_total"
	// MetricRetries counts sequential failover retries after a replica
	// failed.
	MetricRetries = "semdisco_netcluster_retries_total"
	// MetricSetDown counts searches where every replica of a set failed —
	// the degraded answers the coordinator served.
	MetricSetDown = "semdisco_netcluster_set_down_total"
)

// MetricHelp maps the group metrics to their Prometheus HELP texts.
var MetricHelp = map[string]string{
	MetricAttempts:      "Replica attempts: primaries and failover retries.",
	MetricReplicaErrors: "Failed replica attempts.",
	MetricRetries:       "Sequential failover retries after a replica failure.",
	MetricSetDown:       "Searches in which an entire replica set failed.",
}

// GroupOptions tunes one replica set's failover behavior.
type GroupOptions struct {
	// AttemptTimeout bounds each replica attempt; an expired attempt fails
	// over to the next replica. 0 leaves attempts bounded only by the
	// query's own deadline.
	AttemptTimeout time.Duration
	// Registry receives the group's metrics; nil disables them.
	Registry *obs.Registry
}

// replicaState is one replica's health counters.
type replicaState struct {
	attempts atomic.Int64
	errors   atomic.Int64
	// The replica's metric series, resolved on first use.
	attemptsC, errorsC *obs.CounterRef
}

// Group is one replica set presented to the cluster Router as a single
// logical Shard: R servers holding identical copies of one partition.
// SearchEncoded tries replicas one at a time with per-attempt timeouts,
// retries failures on the next replica with exponential backoff plus
// jitter, and only fails — degrading the federated answer — when every
// replica of the set has failed.
type Group struct {
	set     int
	clients []*Client
	// policy is the Group's failover: one attempt per replica, each under
	// the attempt timeout, failing over on anything but a request error
	// (DESIGN.md §9).
	policy failover
	state  []*replicaState
	// rr rotates the preferred replica so read load spreads across the
	// set instead of hammering replica 0.
	rr      atomic.Uint64
	retries atomic.Int64
	setDown atomic.Int64
	// The set's metric series, resolved on first use.
	retriesC, setDownC *obs.CounterRef
	// lat is the set's recent successful-attempt latency, behind the
	// p50/p95 in Stats.
	lat cluster.Window
}

// failover is the attempt policy of one replica set: how many replicas a
// call may try, what bounds an attempt, how long to back off before the
// next one and which errors end the call at once.
type failover struct {
	// targets is how many attempts a call may make, numbered from 0; the
	// caller maps the number to a replica.
	targets int
	// attemptTimeout bounds each attempt on its own; 0 leaves attempts
	// bounded by ctx alone.
	attemptTimeout time.Duration
	// A failed attempt is followed by the next one after
	// backoffBase·2ⁿ (capped at backoffMax) plus up to 50% jitter, so a
	// fleet retrying a flapping replica does not beat on it in lockstep.
	backoffBase, backoffMax time.Duration
	// final reports an error every target would repeat (a bad request);
	// it ends the call at once. Nil means no error is final.
	final func(error) bool
}

func (p failover) backoff(n int) time.Duration {
	d := p.backoffBase << uint(n)
	if d > p.backoffMax || d <= 0 {
		d = p.backoffMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// run calls do for attempt 0, 1, … on the caller's goroutine until one
// succeeds, recording its duration in w, and returns the number of
// attempts made. It stops early on a final error or when ctx dies during
// a back-off; when every attempt failed it returns the last failure.
func (p failover) run(ctx context.Context, w *cluster.Window, do func(ctx context.Context, attempt int) (reply, error)) (reply, int, error) {
	for n := 0; ; n++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.attemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.attemptTimeout)
		}
		start := time.Now()
		rep, err := do(actx, n)
		cancel()
		if err == nil {
			w.Record(time.Since(start))
			return rep, n + 1, nil
		}
		if n+1 == p.targets || (p.final != nil && p.final(err)) {
			return reply{}, n + 1, err
		}
		t := time.NewTimer(p.backoff(n))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return reply{}, n + 1, ctx.Err()
		}
	}
}

// NewGroup builds a replica set over shard base URLs sharing one
// transport.
func NewGroup(set int, urls []string, rt func(string) *Client, opts GroupOptions) (*Group, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("netcluster: replica set %d has no members", set)
	}
	g := &Group{
		set: set,
		policy: failover{
			targets:        len(urls),
			attemptTimeout: opts.AttemptTimeout,
			backoffBase:    5 * time.Millisecond,
			backoffMax:     250 * time.Millisecond,
			final:          requestError,
		},
		state: make([]*replicaState, len(urls)),
	}
	reg, setLabel := opts.Registry, strconv.Itoa(set)
	g.retriesC = reg.CounterRef(obs.L(MetricRetries, "set", setLabel))
	g.setDownC = reg.CounterRef(obs.L(MetricSetDown, "set", setLabel))
	for i, u := range urls {
		g.clients = append(g.clients, rt(u))
		replica := strconv.Itoa(i)
		g.state[i] = &replicaState{
			attemptsC: reg.CounterRef(obs.L(MetricAttempts, "set", setLabel, "replica", replica)),
			errorsC:   reg.CounterRef(obs.L(MetricReplicaErrors, "set", setLabel, "replica", replica)),
		}
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

// call runs one remote call through the replica failover: the preferred
// replica first (rotating per call), each failure moving on to the next
// untried one. It returns an error only when every replica failed, the
// request itself was bad, or the query's own context died. The answering
// replica's remote spans are grafted into the trace ctx carries.
func (g *Group) call(ctx context.Context, remote func(context.Context, *Client) (reply, error)) (reply, error) {
	n := len(g.clients)
	first := int(g.rr.Add(1)-1) % n
	rep, attempts, err := g.policy.run(ctx, &g.lat, func(actx context.Context, attempt int) (reply, error) {
		idx := (first + attempt) % n
		st := g.state[idx]
		st.attempts.Add(1)
		st.attemptsC.Get().Inc()
		rep, err := remote(actx, g.clients[idx])
		if err != nil && ctx.Err() == nil { // a query that gave up is not the replica's failure
			st.errors.Add(1)
			st.errorsC.Get().Inc()
		}
		return rep, err
	})
	if retries := int64(attempts - 1); retries > 0 {
		g.retries.Add(retries)
		g.retriesC.Get().Add(retries)
	}
	switch {
	case err == nil:
		obs.TraceFrom(ctx).Adopt(rep.spans)
		return rep, nil
	case ctx.Err() != nil || requestError(err):
		return reply{}, err
	}
	g.setDown.Add(1)
	g.setDownC.Get().Inc()
	return reply{}, fmt.Errorf("netcluster: replica set %d down (%d replicas failed): %w", g.set, n, err)
}

// SearchEncoded implements cluster.Shard: one pre-encoded query answered
// by the first replica that succeeds. The remote cost report is folded
// into the accumulator ctx carries (the Router's per-shard Cost).
func (g *Group) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	rep, err := g.call(ctx, func(actx context.Context, cl *Client) (reply, error) {
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
// one failover call, so a failing replica costs one retry for the batch,
// not one per query.
func (g *Group) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	rep, err := g.call(ctx, func(actx context.Context, cl *Client) (reply, error) {
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
	Set      int            `json:"set"`
	Replicas []ReplicaStats `json:"replicas"`
	Retries  int64          `json:"retries"`
	SetDown  int64          `json:"set_down"`
	P50MS    float64        `json:"p50_ms"`
	P95MS    float64        `json:"p95_ms"`
}

// Stats snapshots the set's failover counters and attempt latency.
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		Set:     g.set,
		Retries: g.retries.Load(),
		SetDown: g.setDown.Load(),
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
