// Command semdisco-serve hosts a discovery engine over HTTP.
//
// Usage:
//
//	semdisco-serve -dir ./tables -addr :8080           # index CSVs, serve
//	semdisco-serve -load engine.bin -addr :8080        # serve a saved engine
//	semdisco-serve -dir ./tables -pprof -log-format json
//
// Networked cluster: -role turns the process into one node of a sharded
// deployment. A shard server
//
//	semdisco-serve -dir ./tables -role shard -sets 2 -set 0 -addr :8081
//
// loads the full corpus for encoder statistics but indexes only the
// relations the placement ring assigns to its set, and serves the internal
// search stream alongside the public API. Every replica of a
// set runs the identical command. A coordinator
//
//	semdisco-serve -dir ./tables -role coordinator \
//	    -peers "http://h1:8081,http://h2:8081;http://h3:8082,http://h4:8082" \
//	    -attempt-timeout 2s -addr :8080
//
// fronts those replica sets: -peers lists them (commas separate replicas
// within a set, semicolons separate sets; set i of the coordinator must be
// the servers started with -set i), queries are embedded once and raw
// vectors fan out with per-attempt timeouts and sequential failover, and
// writes route to every replica of the ring-owning set. A replica set that fails degrades the answer (the
// response carries "degraded" and "shard_errors") instead of failing the
// query, and /v1/stats reports per-set and per-replica health. The
// engine-only endpoints (/v1/datasets, "sources", /v1/debug/index,
// /v1/debug/recall) respond 501 on a coordinator.
//
// Shutdown: SIGINT/SIGTERM drains in-flight requests for up to -drain,
// stops the background compactor (-compact-interval) and recall-probe
// tickers, and — with -trace-flush — writes the retained trace store as
// JSON lines before exiting.
//
// The JSON API is documented in internal/httpapi. Only embeddings are
// held in the index, so serving it does not expose raw table contents
// beyond relation identifiers.
//
// Observability: every request is logged through log/slog (text by
// default, -log-format json for machine ingestion), engine and HTTP
// metrics are served at /metrics in Prometheus text format, and -pprof
// mounts the runtime profiler at /debug/pprof/.
//
// Diagnostics: /v1/debug/index serves the index-health report and
// /v1/debug/recall an on-demand recall probe; -recall-probe-interval probes
// periodically and exports semdisco_recall_at_k on /metrics.
//
// Tracing: every request runs under a W3C trace context (inbound
// traceparent headers are continued; X-Trace-Id / Traceparent /
// X-Request-Id are stamped on responses), and interesting traces — slow
// per -trace-threshold, degraded, errored, plus a 1-in-M head
// sample per -trace-head-sample — are retained in a -trace-store-sized
// ring. It is the one retained-query record, in every mode:
// /v1/debug/traces lists it newest first, /v1/debug/slow slowest first,
// /v1/debug/costly costliest first and /v1/debug/journal streams it as
// JSON lines (-trace-head-sample 1 keeps every query). Scrapes accepting OpenMetrics get histogram exemplars on
// /metrics linking latency buckets to stored trace IDs. -no-trace turns
// the subsystem off.
//
// Cost accounting and SLOs: every search response carries a "cost" block
// (distance computations, graph hops, PQ lookups, bytes scanned), and
// /v1/debug/slo serves multi-window error-budget burn rates.
// -slo-availability, -slo-latency-objective and -slo-latency-threshold set
// the objectives; -no-slo turns the SLO engine off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semdisco"
	"semdisco/internal/httpapi"
	"semdisco/internal/obs"
)

var (
	dir         = flag.String("dir", "", "directory of *.csv files to index")
	loadPath    = flag.String("load", "", "saved engine file (alternative to -dir)")
	addr        = flag.String("addr", ":8080", "listen address")
	method      = flag.String("method", "cts", "search method when indexing: cts, anns or exs")
	dim         = flag.Int("dim", 256, "embedding dimensionality when indexing")
	seed        = flag.Int64("seed", 1, "random seed")
	logFormat   = flag.String("log-format", "text", "log output format: text or json")
	enablePprof = flag.Bool("pprof", false, "mount net/http/pprof at /debug/pprof/")

	probeInterval = flag.Duration("recall-probe-interval", 0,
		"probe recall@10 against an exhaustive scan this often (0 disables)")

	noTrace = flag.Bool("no-trace", false,
		"disable span-tree tracing and the /v1/debug/{traces,slow,costly,journal} store")
	traceStore = flag.Int("trace-store", 0,
		"retained-trace ring capacity (0 = default 256)")
	traceThreshold = flag.Duration("trace-threshold", 0,
		"retain every trace whose request ran at least this long (0 disables the latency criterion)")
	traceHeadSample = flag.Int("trace-head-sample", 0,
		"keep 1 in every M otherwise-uninteresting traces (0 = default 64, negative disables)")

	noSLO = flag.Bool("no-slo", false,
		"disable the SLO burn-rate engine and the /v1/debug/slo endpoint")
	sloAvailability = flag.Float64("slo-availability", 0,
		"availability objective as a fraction, e.g. 0.999 (0 = default 0.999)")
	sloLatencyObjective = flag.Float64("slo-latency-objective", 0,
		"latency objective as a fraction of requests under -slo-latency-threshold (0 = default 0.99)")
	sloLatencyThreshold = flag.Duration("slo-latency-threshold", 0,
		"latency objective cutoff (0 = default 500ms)")

	role = flag.String("role", "",
		"networked-cluster role: shard or coordinator (empty = standalone)")
	peers = flag.String("peers", "",
		"coordinator replica sets: commas separate replica URLs within a set, semicolons separate sets")
	setIdx = flag.Int("set", 0, "this shard server's replica-set index, in [0,-sets) (role=shard)")
	nSets  = flag.Int("sets", 0, "replica-set (partition) count of the deployment (role=shard)")
	vnodes = flag.Int("vnodes", 0,
		"placement-ring virtual nodes per set; must match across every node (0 = default)")
	attemptTimeout = flag.Duration("attempt-timeout", 0,
		"coordinator per-replica-attempt deadline; expired attempts fail over to the next replica (0 disables)")

	drain = flag.Duration("drain", 10*time.Second,
		"graceful-shutdown drain deadline for in-flight requests on SIGINT/SIGTERM")
	compactInterval = flag.Duration("compact-interval", 0,
		"background segment-compaction ticker (0 = mutation-driven compaction only)")
	traceFlush = flag.String("trace-flush", "",
		"write the retained trace store to this file as JSON lines on shutdown")
)

func main() {
	flag.Parse()
	if *dir == "" && *loadPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("unknown log format", "format", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	var m semdisco.Method
	switch strings.ToLower(*method) {
	case "cts":
		m = semdisco.CTS
	case "anns":
		m = semdisco.ANNS
	case "exs":
		m = semdisco.ExS
	default:
		logger.Error("unknown method", "method", *method)
		os.Exit(1)
	}

	tracing := semdisco.TracingConfig{
		Disable:          *noTrace,
		StoreSize:        *traceStore,
		LatencyThreshold: *traceThreshold,
		HeadSampleEvery:  *traceHeadSample,
	}
	slo := semdisco.SLOConfig{
		Disable:          *noSLO,
		Availability:     *sloAvailability,
		LatencyObjective: *sloLatencyObjective,
		LatencyThreshold: *sloLatencyThreshold,
	}
	cfg := semdisco.Config{Method: m, Dim: *dim, Seed: *seed, Tracing: tracing, SLO: slo}
	cfg.Segments.CompactionInterval = *compactInterval

	switch *role {
	case "":
		// Standalone below.
	case "shard":
		serveShard(logger, cfg)
		return
	case "coordinator":
		serveCoordinator(logger, cfg)
		return
	default:
		logger.Error("unknown role", "role", *role)
		os.Exit(2)
	}

	var (
		eng *semdisco.Engine
		err error
	)
	if *loadPath != "" {
		f, ferr := os.Open(*loadPath)
		if ferr != nil {
			fatal(logger, "opening engine file", ferr)
		}
		eng, err = semdisco.LoadEngine(f)
		f.Close()
		if err != nil {
			fatal(logger, "loading engine", err)
		}
		eng.ConfigureTracing(tracing)
		eng.ConfigureSLO(slo)
		logger.Info("engine loaded", "path", *loadPath,
			"method", eng.Method().String(),
			"relations", eng.NumRelations(), "values", eng.NumValues())
	} else {
		fed, ferr := semdisco.LoadDir(*dir)
		if ferr != nil {
			fatal(logger, "loading corpus", ferr)
		}
		start := time.Now()
		eng, err = semdisco.Open(fed, cfg)
		if err != nil {
			fatal(logger, "building index", err)
		}
		logger.Info("index built", "method", m.String(),
			"relations", eng.NumRelations(), "values", eng.NumValues(),
			"duration", time.Since(start).Round(time.Millisecond))
	}
	serveEngine(logger, eng)
}

// serveShard builds one shard server of a networked cluster: full-corpus
// encoder statistics, partition-only index, internal encoded-search
// stream mounted by httpapi.New.
func serveShard(logger *slog.Logger, cfg semdisco.Config) {
	if *dir == "" {
		fatal(logger, "role shard", errors.New("-dir is required (the full corpus feeds the shared encoder statistics)"))
	}
	if *nSets < 1 {
		fatal(logger, "role shard", errors.New("-sets must be at least 1"))
	}
	fed, err := semdisco.LoadDir(*dir)
	if err != nil {
		fatal(logger, "loading corpus", err)
	}
	start := time.Now()
	eng, err := semdisco.NewNetShard(fed, semdisco.NetShardConfig{
		Config: cfg,
		Sets:   *nSets,
		Set:    *setIdx,
		Vnodes: *vnodes,
	})
	if err != nil {
		fatal(logger, "building shard", err)
	}
	logger.Info("shard built", "set", *setIdx, "sets", *nSets,
		"method", eng.Method().String(), "relations", eng.NumRelations(),
		"duration", time.Since(start).Round(time.Millisecond))
	serveEngine(logger, eng)
}

// serveCoordinator fronts the replica sets named by -peers.
func serveCoordinator(logger *slog.Logger, cfg semdisco.Config) {
	if *dir == "" {
		fatal(logger, "role coordinator", errors.New("-dir is required (the corpus derives encoder statistics and merge order)"))
	}
	replicaSets, err := parsePeers(*peers)
	if err != nil {
		fatal(logger, "role coordinator", err)
	}
	fed, err := semdisco.LoadDir(*dir)
	if err != nil {
		fatal(logger, "loading corpus", err)
	}
	nc, err := semdisco.NewNetCoordinator(fed, replicaSets, semdisco.NetCoordinatorConfig{
		Config:         cfg,
		Vnodes:         *vnodes,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		fatal(logger, "building coordinator", err)
	}
	opts := []httpapi.Option{httpapi.WithLogger(logger)}
	if *enablePprof {
		opts = append(opts, httpapi.WithPprof())
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.NewCoordinator(nc, opts...),
		ReadHeaderTimeout: 5 * time.Second,
	}
	replicas := 0
	for _, set := range replicaSets {
		replicas += len(set)
	}
	logger.Info("serving coordinator", "addr", *addr,
		"sets", len(replicaSets), "replicas", replicas,
		"method", nc.Method().String(), "attempt_timeout", *attemptTimeout)
	serveHTTP(logger, srv, func() {
		flushTraces(logger, nc.Traces())
	})
}

// serveEngine serves one engine — standalone or one networked shard —
// with periodic probes, the background compactor and graceful shutdown
// wired up.
func serveEngine(logger *slog.Logger, eng *semdisco.Engine) {
	opts := []httpapi.Option{httpapi.WithLogger(logger)}
	if *enablePprof {
		opts = append(opts, httpapi.WithPprof())
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	api := httpapi.New(eng, opts...)

	done := make(chan struct{})
	if *probeInterval > 0 {
		api.StartRecallProbe(done, *probeInterval, 10)
		logger.Info("recall probe scheduled", "interval", *probeInterval, "k", 10)
	}
	var stopCompactor func()
	if *compactInterval > 0 {
		stopCompactor = eng.StartCompactor()
		logger.Info("compactor started", "interval", *compactInterval)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}
	srv.RegisterOnShutdown(api.CloseStreams)
	logger.Info("serving", "addr", *addr, "method", eng.Method().String())
	serveHTTP(logger, srv, func() {
		close(done)
		if stopCompactor != nil {
			stopCompactor()
		}
		flushTraces(logger, eng.Traces())
	})
}

// serveHTTP runs the server until it fails or SIGINT/SIGTERM arrives, then
// drains: the listener closes (new connections are refused), in-flight
// requests get up to -drain to finish, and onShutdown runs afterwards to
// stop background tickers and flush state. A drain overrun force-closes
// remaining connections rather than hanging the exit.
func serveHTTP(logger *slog.Logger, srv *http.Server, onShutdown func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(logger, "server", err)
		}
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		logger.Info("shutting down", "drain", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			logger.Warn("drain deadline exceeded; closing connections", "error", err)
			_ = srv.Close()
		}
	}
	if onShutdown != nil {
		onShutdown()
	}
	logger.Info("shutdown complete")
}

// flushTraces writes the retained trace store to -trace-flush as JSON
// lines, oldest first; a no-op without the flag or when tracing is off.
func flushTraces(logger *slog.Logger, store *obs.TraceStore) {
	if *traceFlush == "" || store == nil {
		return
	}
	f, err := os.Create(*traceFlush)
	if err != nil {
		logger.Error("flushing traces", "error", err)
		return
	}
	defer f.Close()
	if err := store.WriteJSONL(f, 0); err != nil {
		logger.Error("flushing traces", "error", err)
		return
	}
	logger.Info("traces flushed", "path", *traceFlush, "kept", store.Kept())
}

// parsePeers splits "-peers" into replica sets: commas separate replica
// URLs within a set, semicolons separate sets.
func parsePeers(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-peers is required")
	}
	var sets [][]string
	for i, part := range strings.Split(s, ";") {
		var urls []string
		for _, u := range strings.Split(part, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			urls = append(urls, u)
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("replica set %d in -peers is empty", i)
		}
		sets = append(sets, urls)
	}
	return sets, nil
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}
