package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"semdisco"
	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
	"semdisco/internal/vec"
)

// The traced run times the system from outside, one rung of a ladder at a
// time: the same fixed query sample is replayed through successively
// deeper public entry points of the same built system, every call is
// recorded as a span, and a rung's self time is its median span minus the
// median spans of the rungs directly below it. Nothing outside bench/ is
// instrumented.

// span is one timed call. Spans of one query share query_id; parent names
// the rung whose call contains this one in the real request path.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"`
	QueryID int    `json:"query_id"`
}

// rung is one entry point of the ladder.
type rung struct {
	name, parent string
	// parts > 1 makes the rung one call per replica set; the query's value
	// is the slowest part, because the coordinator waits for all sets.
	parts int
	// silent rungs are timed but leave no span: the untraced baseline.
	silent bool
	// flip makes the rung trade places with the next one on odd chunks.
	flip bool
	call func(i, part int) error
}

// trace accumulates spans and per-rung results across ladder passes.
type trace struct {
	t0     time.Time
	spans  []span
	dur    map[string]float64 // rung -> median µs per query
	parent map[string]string
	allocs map[string]float64 // rung -> heap allocations per query
	bytes  map[string]float64 // rung -> heap bytes per query
}

func newTrace() *trace {
	return &trace{t0: time.Now(), dur: map[string]float64{}, parent: map[string]string{},
		allocs: map[string]float64{}, bytes: map[string]float64{}}
}

// ladderChunk is how many queries one rung replays before the next rung
// takes over the same queries.
const ladderChunk = 10

// climb replays queries 0..n-1 through the rungs, one rung at a time over
// ladderChunk queries, then the next rung over the same queries, and so on.
// Every rung's spans are thus spread over the whole pass, and a slow second
// of the box slows all rungs alike and cancels in their differences; a
// query still meets caches as cold as ladderChunk-1 other queries leave them.
func (tr *trace) climb(rungs []rung, n int) error {
	per := make([][]float64, len(rungs))
	mallocs, bytes := make([]uint64, len(rungs)), make([]uint64, len(rungs))
	for ri := range rungs {
		per[ri] = make([]float64, n)
	}
	runtime.GC()
	for lo := 0; lo < n; lo += ladderChunk {
		hi := lo + ladderChunk
		if hi > n {
			hi = n
		}
		order := make([]int, len(rungs))
		for ri := range order {
			order[ri] = ri
		}
		if lo/ladderChunk%2 == 1 {
			for ri := 0; ri+1 < len(rungs); ri++ {
				if rungs[ri].flip {
					order[ri], order[ri+1] = order[ri+1], order[ri]
				}
			}
		}
		for _, ri := range order {
			r := rungs[ri]
			parts := r.parts
			if parts == 0 {
				parts = 1
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := lo; i < hi; i++ {
				for part := 0; part < parts; part++ {
					start := time.Now()
					err := r.call(i, part)
					end := time.Now()
					if err != nil {
						return fmt.Errorf("bench: ladder rung %s, query %d: %w", r.name, i, err)
					}
					name := r.name
					if parts > 1 {
						name = fmt.Sprintf("%s/%d", r.name, part)
					}
					if !r.silent {
						tr.spans = append(tr.spans, span{Name: name, Parent: r.parent, QueryID: i,
							StartNS: int64(start.Sub(tr.t0)), EndNS: int64(end.Sub(tr.t0))})
					}
					if us := float64(end.Sub(start)) / float64(time.Microsecond); us > per[ri][i] {
						per[ri][i] = us
					}
				}
			}
			runtime.ReadMemStats(&after)
			mallocs[ri] += after.Mallocs - before.Mallocs
			bytes[ri] += after.TotalAlloc - before.TotalAlloc
		}
	}
	for ri, r := range rungs {
		tr.dur[r.name] = median(per[ri])
		tr.parent[r.name] = r.parent
		tr.allocs[r.name] = float64(mallocs[ri]) / float64(n)
		tr.bytes[r.name] = float64(bytes[ri]) / float64(n)
	}
	return nil
}

// selfTimes subtracts from every rung the rungs directly below it. The
// values telescope: they sum to the top rung's duration.
func selfTimes(dur map[string]float64, parent map[string]string) map[string]float64 {
	self := make(map[string]float64, len(dur))
	for name, d := range dur {
		self[name] = d
	}
	for name, p := range parent {
		if _, ok := dur[p]; ok {
			self[p] -= dur[name]
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (tr *trace) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storeOf unwraps an engine's segment store, the layer below Engine.
func storeOf(eng *semdisco.Engine) (*core.SegmentStore, error) {
	st, ok := eng.EncodedBackend().(*core.SegmentStore)
	if !ok {
		return nil, fmt.Errorf("bench: Engine.EncodedBackend is %T, not *core.SegmentStore", eng.EncodedBackend())
	}
	return st, nil
}

// ladder is the per-workload state the traced passes share.
type ladder struct {
	s    *system
	c    *client
	n    int
	tr   *trace
	vecs [][]float32 // query i's embedding, filled by the embed rung
	// stores are the segment stores under test: the engine's, or one replica
	// of each set on coord-fanout.
	stores []*core.SegmentStore
	// answers[i] is the top rung's engine-level answer to query i, and
	// costs[i] its work accounting.
	answers [][]core.Match
	costs   []obs.CostReport
}

func newLadder(s *system, c *client, n int) (*ladder, error) {
	if n > len(s.in.pool) {
		n = len(s.in.pool)
	}
	l := &ladder{s: s, c: c, n: n, tr: newTrace(), vecs: make([][]float32, n),
		answers: make([][]core.Match, n), costs: make([]obs.CostReport, n)}
	for _, eng := range s.storeEngines() {
		st, err := storeOf(eng)
		if err != nil {
			return nil, err
		}
		l.stores = append(l.stores, st)
	}
	return l, nil
}

// handlerCall serves one prepared search through Server.ServeHTTP on an
// in-memory recorder: the HTTP layer without the network.
func (l *ladder) handlerCall(i int) error {
	req, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(l.s.in.searchBody[i]))
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	l.s.front.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler answered %d", rec.Code)
	}
	return nil
}

// storeRungs are the rungs from the segment store down, replayed both on
// the untouched index and, suffixed, on the index the mixed phase left.
func (l *ladder) storeRungs(suffix, parent string) []rung {
	ctx := context.Background()
	k := topK
	if l.s.coord != nil {
		k = coordFetch
	}
	return []rung{
		{name: "segstore" + suffix, parent: parent, parts: len(l.stores), call: func(i, part int) error {
			_, err := l.stores[part].SearchEncoded(ctx, l.vecs[i], k)
			return err
		}},
		{name: "method" + suffix, parent: "segstore" + suffix, parts: len(l.stores), call: func(i, part int) error {
			base, _ := l.stores[part].Base()
			_, err := base.SearchEncoded(ctx, l.vecs[i], k)
			return err
		}},
	}
}

// coordFetch is what the coordinator asks of each set for a top-k query:
// k plus the Router's default slack of 8.
const coordFetch = topK + 8

// readOnly climbs the whole ladder on the untouched index and fills the
// metrics every rung yields.
func (l *ladder) readOnly(m map[string]float64) error {
	ctx := context.Background()
	in := l.s.in
	var buf bytes.Buffer
	overHTTP := func(i, _ int) error {
		if !l.c.ok(http.MethodPost, "/v1/search", in.searchBody[i], http.StatusOK, &buf) {
			return fmt.Errorf("search did not answer 200")
		}
		return nil
	}
	rungs := []rung{
		// After a stretch of in-process calls the first HTTP round trips are
		// slower (idle connections, parked threads, a virtual CPU's wake-up
		// latency): "rewarm" soaks that up and is discarded. "untraced" makes
		// the same calls as "http" without recording spans, trading places
		// with it every other chunk so what ramp is left hits both alike;
		// their ratio is trace.overhead_ratio.
		{name: "rewarm", silent: true, call: overHTTP},
		{name: "untraced", silent: true, flip: true, call: overHTTP},
		{name: "http", call: overHTTP},
		{name: "handler", parent: "http", call: func(i, _ int) error { return l.handlerCall(i) }},
	}
	if l.s.coord == nil {
		rungs = append(rungs,
			rung{name: "engine", parent: "handler", call: func(i, _ int) error {
				var err error
				l.answers[i], l.costs[i], err = l.s.eng.SearchCost(ctx, in.pool[i], topK)
				return err
			}},
			rung{name: "embed", parent: "engine", call: func(i, _ int) error {
				l.vecs[i] = l.s.eng.Embed(in.pool[i])
				return nil
			}})
		rungs = append(rungs, l.storeRungs("", "engine")...)
	} else {
		clients := make([]*netcluster.Client, len(l.s.shardURLs))
		for set, urls := range l.s.shardURLs {
			clients[set] = netcluster.NewClient(urls[0], nil)
		}
		rungs = append(rungs,
			rung{name: "coordinator", parent: "handler", call: func(i, _ int) error {
				res, err := l.s.coord.SearchContext(ctx, in.pool[i], topK)
				if err != nil {
					return err
				}
				l.answers[i], l.costs[i] = res.Matches, res.Cost
				return nil
			}},
			rung{name: "embed", parent: "coordinator", call: func(i, _ int) error {
				l.vecs[i] = l.s.coord.Embed(in.pool[i])
				return nil
			}},
			rung{name: "client", parent: "coordinator", parts: len(clients), call: func(i, part int) error {
				_, _, _, err := clients[part].SearchEncoded(ctx, l.vecs[i], coordFetch)
				return err
			}})
		rungs = append(rungs, l.storeRungs("", "client")...)
	}

	// Attempts and errors the coordinator's replica groups count while the
	// ladder's own searches run.
	var before netcluster.CoordinatorStats
	if l.s.coord != nil {
		before = l.s.coord.Stats()
	}

	if err := l.tr.climb(rungs, l.n); err != nil {
		return err
	}
	dur, self := l.tr.dur, selfTimes(l.tr.dur, l.tr.parent)
	m["trace.overhead_ratio"] = dur["http"] / dur["untraced"]
	m["http.roundtrip_self_us"] = self["http"]
	m["httpapi.self_us"] = self["handler"]
	m["embed.encode_us"] = dur["embed"]
	m["segstore.self_us"] = self["segstore"]
	m["core.method_us"] = dur["method"]

	harness := l.harnessAllocs()
	top := "engine"
	if l.s.coord != nil {
		top = "coordinator"
		m["router.self_us"] = self["coordinator"]
		m["netcluster.client_rtt_us"] = dur["client"]
		m["netcluster.wire_self_us"] = self["client"]
		after := l.s.coord.Stats()
		var attempts, errs int64
		for g := range after.Groups {
			for r := range after.Groups[g].Replicas {
				attempts += after.Groups[g].Replicas[r].Attempts - before.Groups[g].Replicas[r].Attempts
				errs += after.Groups[g].Replicas[r].Errors - before.Groups[g].Replicas[r].Errors
			}
		}
		// Five rungs reach the coordinator's groups: "rewarm", "untraced",
		// "http" and "handler" through the server, "coordinator" directly.
		m["netcluster.attempts_per_query"] = float64(attempts) / float64(5*l.n)
		m["netcluster.errors"] = float64(errs)
	} else {
		m["engine.self_us"] = self["engine"]
	}
	m["engine.allocs_per_query"] = l.tr.allocs[top]
	m["engine.bytes_per_query"] = l.tr.bytes[top]
	m["httpapi.allocs_per_request"] = l.tr.allocs["handler"] - harness - l.tr.allocs[top]

	var sum obs.CostReport
	for _, c := range l.costs {
		sum.Add(c)
	}
	n := float64(l.n)
	m["hnsw.hops_per_query"] = float64(sum.HNSWHops) / n
	m["pq.lookups_per_query"] = float64(sum.PQLookups) / n
	m["core.distance_comps_per_query"] = float64(sum.DistanceComps) / n
	m["core.values_scanned_per_query"] = float64(sum.ValuesScanned) / n
	return nil
}

// harnessAllocs measures what the handler rung itself allocates per call
// (request, recorder) by serving a no-op handler the same way.
func (l *ladder) harnessAllocs() float64 {
	noop := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < l.n; i++ {
		req, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(l.s.in.searchBody[i]))
		if err != nil {
			continue
		}
		noop.ServeHTTP(httptest.NewRecorder(), req)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(l.n)
}

// countsRepeat asserts the exact work counts repeat: the cost an HTTP
// answer reports for a query must equal what the engine rung accounted for
// the same query.
func (l *ladder) countsRepeat(t *tally) {
	n := l.n
	if n > 50 {
		n = 50
	}
	for i := 0; i < n; i++ {
		resp, err := l.c.search(l.s.in.searchBody[i])
		if err != nil || resp.Cost == nil {
			t.expect(false, "cost of query %d over HTTP: %v", i, err)
			continue
		}
		t.expect(*resp.Cost == l.costs[i], "query %d: work counts do not repeat: %+v over HTTP, %+v direct", i, *resp.Cost, l.costs[i])
	}
}

// methodDetail measures the bottom of the ladder on set 0's (or the only)
// base index: batched method time, overlap with an exhaustive scan of the
// same embedding, and the vec kernels on the same value matrix.
func (l *ladder) methodDetail(m map[string]float64) error {
	ctx := context.Background()
	base, emb := l.stores[0].Base()

	bs, ok := base.(core.BatchSearcher)
	if !ok {
		return fmt.Errorf("bench: base searcher %T does not batch", base)
	}
	var perQuery []float64
	for lo := 0; lo < l.n; lo += batchBlock {
		hi := lo + batchBlock
		if hi > l.n {
			if lo > 0 {
				break // a short last block would not compare with the full ones
			}
			hi = l.n
		}
		ks := make([]int, hi-lo)
		for i := range ks {
			ks[i] = topK
		}
		start := time.Now()
		if _, err := bs.SearchEncodedBatch(ctx, l.vecs[lo:hi], ks, nil); err != nil {
			return err
		}
		perQuery = append(perQuery, float64(time.Since(start))/float64(time.Microsecond)/float64(hi-lo))
	}
	m["core.method_batch_us_per_query"] = median(perQuery)

	if l.s.coord != nil {
		// The coordinator's answers are checked equal to a single ExS engine.
		m["core.overlap_at_10_vs_exs"] = 1
	} else {
		exs := core.NewExS(emb, core.ExSOptions{})
		var overlap float64
		for i := 0; i < l.n; i++ {
			want, err := exs.SearchEncoded(ctx, l.vecs[i], topK)
			if err != nil {
				return err
			}
			if len(want) == 0 {
				overlap++
				continue
			}
			in := make(map[string]bool, len(want))
			for _, w := range want {
				in[w.RelationID] = true
			}
			hit := 0
			for _, g := range l.answers[i] {
				if in[g.RelationID] {
					hit++
				}
			}
			overlap += float64(hit) / float64(len(want))
		}
		m["core.overlap_at_10_vs_exs"] = overlap / float64(l.n)
	}

	vs := make([][]float32, len(emb.Values))
	for i := range emb.Values {
		vs[i] = emb.Values[i].Vec
	}
	kernels(vs, l.vecs, m)
	return nil
}

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float32

// kernels times vec.Dot, vec.DotBatch and vec.TopKDesc over the value
// matrix the index was built on. Both bandwidth figures count n·dim·4
// bytes per query scored (computed, not measured, bytes); each is the
// median of 5 equal rounds.
func kernels(vs, qs [][]float32, m map[string]float64) {
	n, d := len(vs), len(vs[0])
	scores := make([]float32, n)
	bytesPerPass := float64(n) * float64(d) * 4

	reps := 1 + 1_200_000/n
	var gbps []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			q := qs[rep%len(qs)]
			for i, v := range vs {
				scores[i] = vec.Dot(q, v)
			}
		}
		gbps = append(gbps, bytesPerPass*float64(reps)/time.Since(start).Seconds()/1e9)
	}
	sink += scores[0]
	m["vec.dot_gbps"] = median(gbps)

	block := qs
	if len(block) > batchBlock {
		block = block[:batchBlock]
	}
	const valueBlock = 64 // values per DotBatch call, as the ExS batch scan gathers them
	out := make([]float32, len(block)*valueBlock)
	reps = 1 + 100_000/n
	gbps = gbps[:0]
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for lo := 0; lo < n; lo += valueBlock {
				hi := lo + valueBlock
				if hi > n {
					hi = n
				}
				vec.DotBatch(block, vs[lo:hi], out[:len(block)*(hi-lo)])
			}
		}
		gbps = append(gbps, bytesPerPass*float64(len(block)*reps)/time.Since(start).Seconds()/1e9)
	}
	sink += out[0]
	m["vec.dotbatch_gbps"] = median(gbps)

	reps = 1 + 4_000_000/n
	var ns []float64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			sink += vec.TopKDesc(scores, topK)[0].Score
		}
		ns = append(ns, float64(time.Since(start))/float64(reps)/float64(n))
	}
	m["vec.topk_ns_per_value"] = median(ns)
}

// wireDetail measures the coordinator↔shard protocol in isolation: the
// JSON codec on the real request and answer of each sampled query, and the
// Router's scatter and merge over stub shards that replay recorded per-set
// answers at once (no network, no scan).
func (l *ladder) wireDetail(m map[string]float64) error {
	ctx := context.Background()
	sets := len(l.stores)
	perSet := make([][][]core.Match, sets)
	for set, st := range l.stores {
		perSet[set] = make([][]core.Match, l.n)
		for i := 0; i < l.n; i++ {
			ms, err := st.SearchEncoded(ctx, l.vecs[i], coordFetch)
			if err != nil {
				return err
			}
			perSet[set][i] = ms
		}
	}

	var enc, dec, reqBytes, respBytes []float64
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for i := 0; i < l.n; i++ {
		req := netcluster.EncodedSearchRequest{Vector: l.vecs[i], K: coordFetch}
		resp := netcluster.EncodedSearchResponse{Matches: make([]netcluster.WireMatch, len(perSet[0][i]))}
		for j, mm := range perSet[0][i] {
			resp.Matches[j] = netcluster.WireMatch{RelationID: mm.RelationID, Score: mm.Score}
		}
		start := time.Now()
		rb, err := json.Marshal(req)
		if err != nil {
			return err
		}
		pb, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		mid := time.Now()
		var req2 netcluster.EncodedSearchRequest
		var resp2 netcluster.EncodedSearchResponse
		if err := json.Unmarshal(rb, &req2); err != nil {
			return err
		}
		if err := json.Unmarshal(pb, &resp2); err != nil {
			return err
		}
		end := time.Now()
		enc, dec = append(enc, us(mid.Sub(start))), append(dec, us(end.Sub(mid)))
		reqBytes, respBytes = append(reqBytes, float64(len(rb))), append(respBytes, float64(len(pb)))
	}
	m["netcluster.wire_encode_us"] = median(enc)
	m["netcluster.wire_decode_us"] = median(dec)
	m["netcluster.req_bytes"] = median(reqBytes)
	m["netcluster.resp_bytes"] = median(respBytes)

	byText := make(map[string]int, l.n)
	for i := 0; i < l.n; i++ {
		byText[l.s.in.pool[i]] = i
	}
	order := make(map[string]int)
	for i, r := range l.s.in.corpus.Federation.Relations() {
		order[r.ID] = i
	}
	index := make(map[*float32]int, l.n)
	for i := 0; i < l.n; i++ {
		index[&l.vecs[i][0]] = i
	}
	shards := make([]cluster.Shard, sets)
	relCounts := make([]int, sets)
	for set := range shards {
		shards[set] = replayShard{answers: perSet[set], index: index}
		relCounts[set] = l.s.shards[set][0].NumRelations()
	}
	router, err := cluster.NewRouter(shards, relCounts, cluster.Options{
		Method: "ExS",
		Encode: func(q string) []float32 { return l.vecs[byText[q]] },
		Order:  func(id string) int { return order[id] },
	})
	if err != nil {
		return err
	}
	var merge []float64
	for i := 0; i < l.n; i++ {
		start := time.Now()
		if _, err := router.Search(ctx, l.s.in.pool[i], topK); err != nil {
			return err
		}
		merge = append(merge, us(time.Since(start)))
	}
	m["router.merge_us"] = median(merge)
	return nil
}

// replayShard answers a Router's scatter from recorded per-set results,
// found by the query vector's identity.
type replayShard struct {
	answers [][]core.Match
	index   map[*float32]int
}

func (r replayShard) SearchEncoded(_ context.Context, q []float32, _ int) ([]core.Match, error) {
	i, ok := r.index[&q[0]]
	if !ok {
		return nil, fmt.Errorf("bench: unknown query vector")
	}
	return r.answers[i], nil
}

// afterWrites climbs the store rungs again on the index the mixed phase
// left (mutable segment, tombstones), then times direct writes, reads the
// segment shape and — on exs-scan only — a full compaction.
func (l *ladder) afterWrites(p plan, m map[string]float64) error {
	parent := "engine"
	if l.s.coord != nil {
		parent = "client"
	}
	if err := l.tr.climb(l.storeRungs(".mixed", parent), l.n); err != nil {
		return err
	}
	m["segstore.mixed_self_us"] = l.tr.dur["segstore.mixed"] - l.tr.dur["method.mixed"]

	ctx := context.Background()
	extra := l.s.in.extra
	if err := l.tr.climb([]rung{{name: "write", call: func(i, _ int) error {
		if l.s.coord != nil {
			return l.s.coord.Add(ctx, extra[i])
		}
		return l.s.eng.Add(extra[i])
	}}}, len(extra)); err != nil {
		return err
	}
	m["segstore.write_us"] = l.tr.dur["write"]

	for _, eng := range l.s.storeEngines() {
		st := eng.SegmentStats()
		m["segstore.segments"] += float64(st.Segments)
		m["segstore.dead_values"] += float64(st.DeadValues)
	}

	if p.Method == "ExS" {
		start := time.Now()
		if err := l.s.eng.Compact(); err != nil {
			return err
		}
		m["segstore.compact_s"] = time.Since(start).Seconds()
	}
	return nil
}

// buildGauges reads the index-build phase durations the engine's metrics
// registry recorded during set-up.
func buildGauges(s *system, m map[string]float64) {
	if s.eng == nil {
		return
	}
	b := s.eng.Stats().BuildSeconds
	m["hnsw.insert_s"] = b["hnsw_insert"]
	m["pq.train_s"] = b["pq_train"]
	m["umap.fit_s"] = b["umap"]
	m["hdbscan.cluster_s"] = b["hdbscan"]
}
