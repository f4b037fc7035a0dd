package main

// The frozen shape of the benchmark: which systems are measured, how much
// work each phase does, and which metrics come out. Everything here was
// probed once on the 2-core seed box and then fixed; nothing depends on a
// measurement taken during a run, so two runs of one commit do identical
// work. BENCHMARK.json repeats the metric names with their bounds
// (TestDeclaredMetricsMatchBenchmarkJSON keeps the two in step).

const (
	// runSeconds is BENCHMARK.json's run_seconds: the op counts below are
	// sized so the five timed phases together take about this long on the
	// seed box. --seconds scales every count by seconds/runSeconds.
	runSeconds = 12

	dim        = 256 // embedding dimensionality of every workload
	topK       = 10  // k of every search
	rounds     = 5   // equal rounds per phase, reduced by midmean
	setups     = 3   // set-ups per run; setup_s is their median
	warmOps    = 300 // discarded searches before the first timed phase
	batchBlock = 64  // queries per /v1/search/batch request

	// openRoundS is one open-loop round's length in seconds.
	openRoundS = 0.5
	// writeRate is the mixed phase's offered write rate per second, and
	// writesPerRound its writes per round (a multiple of 3: add, update,
	// delete in turn). 5 rounds × 18 / 30 = 3 s, and 90 writes touch at most
	// 45 original relations, a third of the smallest corpus.
	writeRate      = 30.0
	writesPerRound = 18

	// queriesPerClass sizes the query pool: 3 classes × 400 = 1,200 strings
	// in the paper's equal short/moderate/long mix.
	queriesPerClass = 400
	// qualityPerClass picks the judged queries ndcg_at_10 averages over: the
	// first 20 of each class, the paper's 60.
	qualityPerClass = 20
	// oracleQueries is how many pool queries, beyond the judged 60, are
	// compared against the exhaustive oracle.
	oracleQueries = 60
	// ladderWrites is how many direct engine writes segstore.write_us times.
	ladderWrites = 30
)

// workload is one system under test with its frozen op counts.
type workload struct {
	Name string
	// Why records the reason the workload exists (mirrored in
	// BENCHMARK.json and README.md).
	Why string
	// Method is "ExS", "ANNS" or "CTS" for a single engine behind
	// httpapi.New, or "coord" for a NetCoordinator over 2 sets × 2 replicas
	// of ExS shard servers behind httpapi.NewCoordinator.
	Method string
	// Scale multiplies corpus.WikiTables() (600 relations at 1).
	Scale float64
	// Per-round op counts at runSeconds.
	LatOps, ThrOps, BatchBlocks int
	// OpenRate is the open-loop offered rate in requests per second: a round
	// number near a third of the seed's qps. (At half, queueing doubles
	// every slowdown of the box and open_lat_ms stops repeating.)
	OpenRate float64
	// SLOms is the open-loop latency limit: 4× the seed's open_p50_ms, rounded
	// up to a whole millisecond.
	SLOms float64
	// LadderQueries is the fixed sample the traced ladder replays per rung.
	LadderQueries int
}

// workloads lists the four systems. Sizes: exs-scan keeps the issue's
// scale 4; the two index workloads run at scale 0.2 because the contract
// gives a run about 35 s including three set-ups and a serial HNSW build
// costs 1.3 ms per vector today (scale 1 would be 27 s per set-up).
var workloads = []workload{
	{
		Name: "exs-scan", Method: "ExS", Scale: 4,
		Why:    "Exhaustive scan over ~63k values: vec kernels and core.ExS are most of a query; no index, cluster or wire code runs",
		LatOps: 90, ThrOps: 105, BatchBlocks: 8, OpenRate: 80, SLOms: 24, LadderQueries: 150,
	},
	{
		Name: "anns-graph", Method: "ANNS", Scale: 0.2,
		Why:    "HNSW walk + PQ ADC per query and HNSW insert + PQ training in set-up; HTTP/JSON/telemetry is ~half the round trip; the scan is bypassed",
		LatOps: 430, ThrOps: 700, BatchBlocks: 9, OpenRate: 500, SLOms: 8, LadderQueries: 500,
	},
	{
		Name: "cts-cluster", Method: "CTS", Scale: 0.2,
		Why:    "UMAP + HDBSCAN are ~80% of set-up; queries do medoid DotBatch + per-cluster HNSW; only here do reduction and clustering show",
		LatOps: 730, ThrOps: 1200, BatchBlocks: 18, OpenRate: 1000, SLOms: 6, LadderQueries: 500,
	},
	{
		Name: "coord-fanout", Method: "coord", Scale: 1,
		Why:    "NetCoordinator over 2 sets x 2 replicas of small ExS shards: Router scatter/merge, netcluster wire codec and two HTTP hops are most of the latency",
		LatOps: 185, ThrOps: 260, BatchBlocks: 16, OpenRate: 200, SLOms: 12, LadderQueries: 300,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is a workload's op counts after --seconds scaling.
type plan struct {
	workload
	Rounds, Setups, WarmOps int
	OpenOpsPerRound         int
	WritesPerRound          int
}

// planFor scales the frozen counts by seconds/runSeconds, keeping at least
// one op per round and the write rounds a multiple of three.
func planFor(w workload, seconds int) plan {
	f := float64(seconds) / runSeconds
	scale := func(n int) int {
		if m := int(float64(n)*f + 0.5); m > 1 {
			return m
		}
		return 1
	}
	p := plan{workload: w, Rounds: rounds, Setups: setups, WarmOps: warmOps}
	p.LatOps, p.ThrOps, p.BatchBlocks = scale(w.LatOps), scale(w.ThrOps), scale(w.BatchBlocks)
	p.LadderQueries = scale(w.LadderQueries)
	p.OpenOpsPerRound = scale(int(w.OpenRate*openRoundS + 0.5))
	p.WritesPerRound = (scale(writesPerRound) + 2) / 3 * 3
	return p
}

// smokePlan is the pre-push sanity shape: a tenth-scale corpus, one round,
// one set-up, a handful of ops. Its numbers mean nothing.
func smokePlan(w workload) plan {
	w.Scale = 0.1
	p := planFor(w, 1)
	p.Rounds, p.Setups, p.WarmOps = 1, 1, 20
	return p
}

// metricDecl names one reported metric.
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd is what the benchmark gates on: the same seven for every
// workload, each with a bound in BENCHMARK.json. README.md defines them and
// says why the latencies are not among them.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"batch_qps", "1/s", "higher"},
	{"slo_ok_ratio", "ratio", "higher"},
	{"ndcg_at_10", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// phaseNames are the timed phases whose sent/ok/failed counts are reported
// as diagnostics.
var phaseNames = []string{"lat", "thr", "batch", "open", "mixed_read", "mixed_write"}

// perLayer is the traced run's output: one group per layer, named after the
// package it measures, plus the harness's own diagnostics. README.md says
// which end-to-end metric each should move and on which workload.
var perLayer = func() []metricDecl {
	d := []metricDecl{
		{"vec.dot_gbps", "GB/s", "higher"},
		{"vec.dotbatch_gbps", "GB/s", "higher"},
		{"vec.topk_ns_per_value", "ns", "lower"},
		{"embed.encode_us", "us", "lower"},
		{"hnsw.insert_s", "s", "lower"},
		{"hnsw.hops_per_query", "count", "lower"},
		{"pq.train_s", "s", "lower"},
		{"pq.lookups_per_query", "count", "lower"},
		{"umap.fit_s", "s", "lower"},
		{"hdbscan.cluster_s", "s", "lower"},
		{"core.method_us", "us", "lower"},
		{"core.method_batch_us_per_query", "us", "lower"},
		{"core.distance_comps_per_query", "count", "lower"},
		{"core.values_scanned_per_query", "count", "lower"},
		{"core.overlap_at_10_vs_exs", "ratio", "higher"},
		{"segstore.self_us", "us", "lower"},
		{"segstore.mixed_self_us", "us", "lower"},
		{"segstore.write_us", "us", "lower"},
		{"segstore.compact_s", "s", "lower"},
		{"segstore.segments", "count", "lower"},
		{"segstore.dead_values", "count", "lower"},
		{"engine.self_us", "us", "lower"},
		{"engine.allocs_per_query", "count", "lower"},
		{"engine.bytes_per_query", "B", "lower"},
		{"httpapi.self_us", "us", "lower"},
		{"httpapi.allocs_per_request", "count", "lower"},
		{"http.roundtrip_self_us", "us", "lower"},
		{"router.self_us", "us", "lower"},
		{"router.merge_us", "us", "lower"},
		{"netcluster.client_rtt_us", "us", "lower"},
		{"netcluster.wire_self_us", "us", "lower"},
		{"netcluster.wire_encode_us", "us", "lower"},
		{"netcluster.wire_decode_us", "us", "lower"},
		{"netcluster.req_bytes", "B", "lower"},
		{"netcluster.resp_bytes", "B", "lower"},
		{"netcluster.attempts_per_query", "count", "lower"},
		{"netcluster.errors", "count", "lower"},
		{"trace.overhead_ratio", "ratio", "lower"},
		// Latencies and generator lateness: too noisy on a shared 2-core box
		// to gate on (15-60% between runs of one commit), kept so a change in
		// them can still be seen and claimed with paired runs. The four
		// *_lat_ms are "typical" latencies — interdecile means, see stats.go —
		// which repeat better than the medians beside them.
		{"lat_ms", "ms", "lower"},
		{"open_lat_ms", "ms", "lower"},
		{"mixed_lat_ms", "ms", "lower"},
		{"write_lat_ms", "ms", "lower"},
		{"p50_ms", "ms", "lower"},
		{"p90_ms", "ms", "lower"},
		{"p99_ms", "ms", "lower"},
		{"open_p50_ms", "ms", "lower"},
		{"open_p90_ms", "ms", "lower"},
		{"open_p99_ms", "ms", "lower"},
		{"mixed_p50_ms", "ms", "lower"},
		{"mixed_p90_ms", "ms", "lower"},
		{"write_p50_ms", "ms", "lower"},
		{"gen_late_p99_ms", "ms", "lower"},
		// The yardstick itself (1 = the quiet seed box) and two timings as
		// the clock read them, before scaling by it.
		{"ref.slowdown", "ratio", "lower"},
		{"raw_lat_ms", "ms", "lower"},
		{"raw_qps", "1/s", "higher"},
	}
	for _, ph := range phaseNames {
		d = append(d,
			metricDecl{ph + ".sent", "count", "higher"},
			metricDecl{ph + ".ok", "count", "higher"},
			metricDecl{ph + ".failed", "count", "lower"})
	}
	return d
}()
