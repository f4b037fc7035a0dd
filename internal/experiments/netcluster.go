package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/corpus"
	"semdisco/internal/netcluster"
	"semdisco/internal/table"
)

// netclusterStragglerDelay is the injected per-request latency on one
// replica of every set during the straggler phase — far above the healthy
// sub-millisecond attempt latency, far below the attempt timeout, so it
// shows up in the tail unless hedging absorbs it.
const netclusterStragglerDelay = 40 * time.Millisecond

// TailLatencyJSON extends the usual latency summary with the p99, the
// quantile replica hedging exists to protect.
type TailLatencyJSON struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// NetclusterReportJSON is the networked-cluster section of the benchmark
// report: equivalence of the wire-level deployment against both the
// in-process Router and the single-engine ExS ranking, tail latency
// healthy / under an induced straggler / with a replica killed mid-run,
// and the failover counters behind those numbers.
type NetclusterReportJSON struct {
	Sets     int    `json:"sets"`
	Replicas int    `json:"replicas_per_set"`
	Method   string `json:"method"`
	// Queries is the number of timed queries per phase.
	Queries int `json:"queries"`
	// EquivalentToExS reports whether the networked ranking matched the
	// single-engine ExS ranking on every query of every phase — the wire
	// layer's correctness invariant.
	EquivalentToExS bool `json:"equivalent_to_exs"`
	// EquivalentToRouter reports the same against the in-process Router
	// over identical partitions.
	EquivalentToRouter bool `json:"equivalent_to_router"`
	// InProcess is the in-process Router baseline over the same partitions.
	InProcess TailLatencyJSON `json:"in_process"`
	// Healthy is the networked coordinator with no faults.
	Healthy TailLatencyJSON `json:"healthy"`
	// Straggler is the networked coordinator with one replica per set
	// answering netclusterStragglerDelay late; hedging and failover decide
	// how much of that reaches the p99.
	Straggler        TailLatencyJSON `json:"straggler"`
	StragglerHedges  int64           `json:"straggler_hedges"`
	StragglerRetries int64           `json:"straggler_retries"`
	// KilledSet's first replica is closed midway through the final phase;
	// KilledAnswered counts queries answered after as well as before (the
	// coordinator must answer every one via the surviving replicas).
	KilledSet      int  `json:"killed_set"`
	KilledQueries  int  `json:"killed_queries"`
	KilledAnswered int  `json:"killed_answered"`
	KilledDegraded int  `json:"killed_degraded"`
	AllAnswered    bool `json:"all_answered"`
	// FaultsInjected counts applied fault-injector rules by kind.
	FaultsInjected map[string]int64 `json:"faults_injected"`
}

// NetclusterReport stands up a wire-level deployment in-process — sets ×
// replicas shard servers on loopback HTTP behind a fault-injecting
// transport, fronted by a replicated coordinator — and measures it against
// the in-process Router and the monolithic ExS index on the LD partition's
// long queries: bit-identical rankings when healthy, tail latency under an
// induced straggler, and availability with a replica killed mid-run.
func (b *Bench) NetclusterReport(sets, replicas, k int) (*NetclusterReportJSON, error) {
	if k <= 0 {
		k = 20
	}
	if sets < 1 {
		sets = 2
	}
	if replicas < 2 {
		replicas = 2
	}
	sb := b.PerSize["LD"]
	single, ok := sb.Searchers["ExS"]
	if !ok {
		return nil, fmt.Errorf("experiments: ExS not built")
	}

	// Partition by the same placement ring the deployment would use, so a
	// real shard server bootstrapping with NewNetShard builds the identical
	// partition.
	ring, err := netcluster.NewRing(sets, 0)
	if err != nil {
		return nil, err
	}
	parts := make([]*table.Federation, sets)
	for i := range parts {
		parts[i] = table.NewFederation()
	}
	order := make(map[string]int, sb.Fed.Len())
	for i, rel := range sb.Fed.Relations() {
		order[rel.ID] = i
		if err := parts[ring.Owner(rel.ID)].Add(rel); err != nil {
			return nil, err
		}
	}
	backends := make([]*core.ExS, sets)
	routerShards := make([]cluster.Shard, sets)
	relCounts := make([]int, sets)
	for i, p := range parts {
		if p.Len() == 0 {
			return nil, fmt.Errorf("experiments: the ring assigns no relations to set %d of %d", i, sets)
		}
		emb := core.EmbedFederation(p, sb.Model)
		backends[i] = core.NewExS(emb, core.ExSOptions{})
		routerShards[i] = backends[i]
		relCounts[i] = p.Len()
	}
	orderOf := func(id string) int { return order[id] }
	router, err := cluster.NewRouter(routerShards, relCounts, cluster.Options{
		Method: "ExS",
		Encode: sb.Model.Encode,
		Order:  orderOf,
	})
	if err != nil {
		return nil, err
	}

	// Replica servers: every replica of a set serves the set's (identical,
	// immutable) partition index over the internal wire protocol.
	servers := make([][]*httptest.Server, sets)
	replicaSets := make([][]string, sets)
	defer func() {
		for _, row := range servers {
			for _, s := range row {
				if s != nil {
					s.Close()
				}
			}
		}
	}()
	for i := range servers {
		h := netcluster.NewShardHandler(backends[i], nil, b.Setup.Dim)
		for r := 0; r < replicas; r++ {
			srv := httptest.NewServer(h)
			servers[i] = append(servers[i], srv)
			replicaSets[i] = append(replicaSets[i], srv.URL)
		}
	}
	inj := netcluster.NewFaultInjector(nil)
	coord, err := netcluster.NewCoordinator(replicaSets, netcluster.CoordinatorOptions{
		Encode:         sb.Model.Encode,
		Order:          orderOf,
		Method:         "ExS",
		AttemptTimeout: 2 * time.Second,
		Hedge:          true,
		Transport:      inj,
	})
	if err != nil {
		return nil, err
	}

	queries := b.Corpus.QueriesOf(corpus.Long)
	if len(queries) == 0 {
		return nil, fmt.Errorf("experiments: no long queries")
	}
	texts := make([]string, 0, len(queries))
	for _, q := range queries {
		texts = append(texts, q.Text)
	}
	// Enough samples that the p99 means something and the hedge trigger's
	// latency window warms up.
	for len(texts) < 48 {
		texts = append(texts, texts...)
	}

	report := &NetclusterReportJSON{
		Sets: sets, Replicas: replicas, Method: "ExS", Queries: len(texts),
		EquivalentToExS: true, EquivalentToRouter: true,
	}
	ctx := context.Background()
	if _, err := router.Search(ctx, texts[0], k); err != nil { // warm-up
		return nil, err
	}
	if _, err := coord.Search(ctx, texts[0], k, nil); err != nil {
		return nil, err
	}

	// Phase 1: in-process Router baseline over the same partitions.
	inproc := make([]float64, 0, len(texts))
	for _, q := range texts {
		start := time.Now()
		if _, err := router.Search(ctx, q, k); err != nil {
			return nil, err
		}
		inproc = append(inproc, msSince(start))
	}
	report.InProcess = tailLatency(inproc)

	// Phase 2: networked, healthy — timing plus the equivalence checks.
	healthy := make([]float64, 0, len(texts))
	for _, q := range texts {
		start := time.Now()
		res, err := coord.Search(ctx, q, k, nil)
		if err != nil {
			return nil, err
		}
		healthy = append(healthy, msSince(start))
		if res.Degraded {
			return nil, fmt.Errorf("experiments: degraded answer with no faults injected: %v", res.ShardErrors)
		}
		want, err := single.Search(q, k)
		if err != nil {
			return nil, err
		}
		if !matchesEqual(res.Matches, want) {
			report.EquivalentToExS = false
		}
		rres, err := router.Search(ctx, q, k)
		if err != nil {
			return nil, err
		}
		if !matchesEqual(res.Matches, rres.Matches) {
			report.EquivalentToRouter = false
		}
	}
	report.Healthy = tailLatency(healthy)

	// Phase 3: one replica per set answers late; cross-replica hedging and
	// failover decide how much of the delay reaches the tail.
	for i := range servers {
		inj.Set(servers[i][0].URL, netcluster.Fault{Latency: netclusterStragglerDelay, Remaining: -1})
	}
	strag := make([]float64, 0, len(texts))
	for _, q := range texts {
		start := time.Now()
		res, err := coord.Search(ctx, q, k, nil)
		if err != nil {
			return nil, err
		}
		strag = append(strag, msSince(start))
		want, err := single.Search(q, k)
		if err != nil {
			return nil, err
		}
		if !matchesEqual(res.Matches, want) {
			report.EquivalentToExS = false
		}
	}
	report.Straggler = tailLatency(strag)
	for _, gs := range coord.Stats().Groups {
		report.StragglerHedges += gs.Hedges
		report.StragglerRetries += gs.Retries
	}
	for i := range servers {
		inj.Clear(servers[i][0].URL)
	}

	// Phase 4: kill one replica mid-run. The coordinator must answer every
	// query — before the kill from any replica, after it from the
	// survivors — without degradation, because the set is still up.
	report.KilledQueries = len(texts)
	killAt := len(texts) / 2
	for n, q := range texts {
		if n == killAt {
			servers[report.KilledSet][0].Close()
			servers[report.KilledSet][0] = nil
		}
		res, err := coord.Search(ctx, q, k, nil)
		if err != nil {
			continue
		}
		report.KilledAnswered++
		if res.Degraded {
			report.KilledDegraded++
		}
		want, err := single.Search(q, k)
		if err != nil {
			return nil, err
		}
		if !matchesEqual(res.Matches, want) {
			report.EquivalentToExS = false
		}
	}
	report.AllAnswered = report.KilledAnswered == report.KilledQueries
	report.FaultsInjected = inj.Injected()
	return report, nil
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// tailLatency summarizes a sample of per-query millisecond timings.
func tailLatency(ms []float64) TailLatencyJSON {
	if len(ms) == 0 {
		return TailLatencyJSON{}
	}
	sorted := make([]float64, len(ms))
	copy(sorted, ms)
	sort.Float64s(sorted)
	var total float64
	for _, v := range sorted {
		total += v
	}
	at := func(p float64) float64 {
		i := int(p * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return TailLatencyJSON{
		MeanMS: total / float64(len(sorted)),
		P50MS:  at(0.50),
		P95MS:  at(0.95),
		P99MS:  at(0.99),
	}
}
