// Package semdisco discovers datasets in a federation of tabular relations
// by semantic matching, implementing "Dataset Discovery using Semantic
// Matching" (EDBT 2025).
//
// Every attribute value of every relation is embedded into a
// high-dimensional vector space; a keyword query is embedded the same way
// and relations are ranked by the aggregate similarity of their values to
// the query — so a query for "COVID" finds a table listing "Comirnaty" and
// "Vaxzevria" even though the string COVID appears nowhere in it. Because
// only embeddings are indexed, and embeddings are not reversible, member
// datasets become searchable without their contents leaving the premises.
//
// Three search strategies are available: exhaustive scan (ExS), vector-
// database approximate search (ANNS: HNSW index + Product Quantization),
// and clustered targeted search (CTS: UMAP reduction + HDBSCAN clustering
// + per-cluster indexes), the paper's headline method.
//
// Quickstart:
//
//	fed := semdisco.NewFederation()
//	fed.Add(&semdisco.Relation{ID: "who", Columns: ..., Rows: ...})
//	eng, err := semdisco.Open(fed, semdisco.Config{Method: semdisco.CTS})
//	resp, err := eng.Do(ctx, semdisco.Request{Query: "COVID vaccines in Europe", K: 10})
//
// Engine, Cluster (in-process shards) and NetCoordinator (replica sets
// over the wire) all implement Backend: one Request → Response entry point
// (Do), its batched form (DoBatch) and the mutation trio. The older
// Search* names are one-line wrappers over Do.
package semdisco

import (
	"context"
	"fmt"
	"sync"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/text"
)

// Method selects the search strategy.
type Method int

const (
	// CTS is Clustered Targeted Search, the paper's best method: fastest
	// queries and the highest retrieval quality, at the price of the most
	// expensive index build (reduction + clustering).
	CTS Method = iota
	// ANNS indexes each distinct value text's vector once in an embedded
	// vector database with HNSW and Product Quantization: near-ExS
	// quality, far faster queries.
	ANNS
	// ExS scans every value vector exhaustively: exact, no index build,
	// query cost linear in the corpus' total value count.
	ExS
)

func (m Method) String() string {
	switch m {
	case CTS:
		return "CTS"
	case ANNS:
		return "ANNS"
	case ExS:
		return "ExS"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Match is one discovery result.
type Match = core.Match

// Config parameterizes an Engine. The zero value selects CTS with the
// paper's defaults (768-dimensional embeddings, cosine similarity).
type Config struct {
	// Method selects the search strategy; default CTS.
	Method Method
	// Dim is the embedding dimensionality; default 768 (all-mpnet-base-v2's
	// output size, per the paper). Smaller dims trade quality for speed.
	Dim int
	// Seed makes embedding and index construction deterministic.
	Seed int64
	// Lexicon optionally injects domain synonym knowledge into the
	// encoder (see NewLexicon). Without one the encoder is purely lexical:
	// robust to inflection and misspelling but blind to synonymy.
	Lexicon *Lexicon
	// IDF optionally weights query/value tokens by informativeness
	// (higher = more important). Built automatically from the federation
	// when nil. It must be a pure function of the token: the encoder calls
	// it once per distinct token and caches the weight.
	IDF func(token string) float64
	// Threshold is the paper's h: matches scoring below it are dropped.
	Threshold float32
	// DisableMetrics turns off the engine's always-on observability
	// (atomic counters and latency histograms, see Engine.Stats and
	// Engine.MetricsRegistry). The default keeps metrics on: the cost is a
	// few atomic adds per query, cheap enough for production. Tracing is
	// independent of this switch: Request.Trace and the trace store work
	// even without a registry.
	DisableMetrics bool
	// Tracing tunes the span-tree tracing subsystem: every search runs
	// under a 128-bit trace ID, and the tail-based trace store retains the
	// traces whose outcome is interesting (slow, degraded, hedged, failed)
	// plus a 1-in-M head sample — the one record behind the trace list, the
	// slowest-first view and the JSON-lines export. The zero value enables
	// tracing with defaults. See TracingConfig.
	Tracing TracingConfig
	// SLO tunes the service-level-objective burn-rate engine (availability
	// and latency objectives over rolling 5m/1h/6h windows). The zero value
	// enables it with defaults. See SLOConfig.
	SLO SLOConfig
	// Segments tunes the mutable segment store: when the in-memory write
	// segment seals, when background compaction triggers, and whether
	// maintenance runs automatically. The zero value enables automatic
	// maintenance with defaults. See SegmentsConfig.
	Segments SegmentsConfig

	// ExS tuning.
	ExS ExSOptions
	// ANNS tuning.
	ANNS ANNSOptions
	// CTS tuning.
	CTS CTSOptions
}

// Engine is a built discovery index over one federation, backed by a
// segment store: a mutable in-memory segment absorbs Add/Update, Delete
// tombstones in place, and background compaction merges segments and
// re-trains index structures when churn warrants it. Search, Add, Delete
// and Update are all safe for concurrent use — searches run against an
// atomically swapped segment snapshot and never block on writers.
type Engine struct {
	telemetry
	cfg   Config
	model *embed.Model
	store *core.SegmentStore
	stats *text.CorpusStats // nil when Config.IDF was supplied
	// relMu guards relSource: mutations write it, filtered searches and
	// dataset grouping read it.
	relMu     sync.RWMutex
	relSource map[string]string // relation ID -> source (dataset)
}

// Open embeds the federation and builds the index for the configured
// method. For CTS this is the expensive phase (dimensionality reduction and
// clustering run here); queries afterwards are fast.
func Open(fed *Federation, cfg Config) (*Engine, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
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
	embedStart := time.Now()
	emb := core.EmbedFederation(fed, model)
	reg.Gauge(obs.L(core.MetricBuildSeconds, "phase", "embed")).Set(time.Since(embedStart).Seconds())
	emb.Obs = reg

	s, err := buildSearcher(cfg, emb)
	if err != nil {
		return nil, err
	}
	store := core.NewSegmentStore(emb, s, segmentStoreOptions(cfg))
	relSource := make(map[string]string, fed.Len())
	for _, r := range fed.Relations() {
		relSource[r.ID] = r.Source
	}
	return &Engine{telemetry: engineTelemetry(cfg, reg), cfg: cfg, model: model, store: store, stats: stats, relSource: relSource}, nil
}

// engineTelemetry is the bookkeeping of a single engine.
func engineTelemetry(cfg Config, reg *obs.Registry) telemetry {
	return telemetry{method: cfg.Method, span: "search", reg: reg,
		latency:  obs.L(core.MetricSearchSeconds, "method", cfg.Method.String()),
		traces:   newTraceStore(cfg.Tracing),
		workload: newWorkload(1, reg),
		slo:      newSLOEngine(cfg.SLO, reg)}
}

// buildSearcher constructs the configured method's index over an embedded
// federation. It is also the segment store's SegmentBuilder: sealing a
// mutable segment and compacting both rebuild through here, so a merged
// segment gets a freshly trained PQ codebook / fresh clustering.
func buildSearcher(cfg Config, emb *core.Embedded) (core.EncodedSearcher, error) {
	var (
		s   core.EncodedSearcher
		err error
	)
	switch cfg.Method {
	case ExS:
		opt := cfg.ExS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		s = core.NewExS(emb, opt)
	case ANNS:
		opt := cfg.ANNS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		if opt.Seed == 0 {
			opt.Seed = cfg.Seed
		}
		s, err = core.NewANNS(emb, opt)
	case CTS:
		opt := cfg.CTS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		if opt.Seed == 0 {
			opt.Seed = cfg.Seed
		}
		s, err = core.NewCTS(emb, opt)
	default:
		return nil, fmt.Errorf("semdisco: unknown method %v", cfg.Method)
	}
	if err != nil {
		return nil, fmt.Errorf("semdisco: building %v index: %w", cfg.Method, err)
	}
	return s, nil
}

// Do implements Backend: rank the federation's relations for the request
// and return at most K matches, best first, all scoring at least the
// configured threshold. The context is threaded into the method's inner
// loops (between ExS scan chunks, between CTS clusters, between HNSW hops),
// so an expired deadline or a cancelled request interrupts the query
// mid-index and returns the context's error; a propagated span context
// (see obs.ContextWithSpan) is continued instead of minting a fresh trace
// ID. Every query feeds the workload analyzer, SLO engine and trace store
// that are enabled; the overhead is a few timestamps and map writes.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	return e.observe(ctx, req, func(ctx context.Context, tr *obs.Trace) (*ClusterResult, error) {
		e.workload.RecordShard(0)
		matches, err := e.search(obs.ContextWithTrace(ctx, tr), req)
		return &ClusterResult{Matches: matches, Cost: obs.CostFrom(ctx).Report()}, err
	})
}

// search runs the request's query against the segment store.
func (e *Engine) search(ctx context.Context, req Request) ([]Match, error) {
	var s core.EncodedSearcher = e.store
	if len(req.Sources) > 0 {
		allowed := make(map[string]struct{}, len(req.Sources))
		for _, src := range req.Sources {
			allowed[src] = struct{}{}
		}
		s = sourceFiltered{e.store, func(relID string) bool {
			e.relMu.RLock()
			src := e.relSource[relID]
			e.relMu.RUnlock()
			_, ok := allowed[src]
			return ok
		}}
	}
	if req.Feedback {
		// Feedback centroids come from the base segment's embedding; matches
		// that live in younger segments still rank, they just contribute no
		// centroid until compaction folds them into the base.
		_, baseEmb := e.store.Base()
		return core.SearchPRF(ctx, s, baseEmb, req.Query, req.K, core.PRFOptions{})
	}
	return core.Search(ctx, s, e.model, e.reg, req.Query, req.K)
}

// sourceFiltered narrows the store to the relations allow accepts, so the
// one text entry point (and feedback on top of it) serves filtered queries.
type sourceFiltered struct {
	*core.SegmentStore
	allow func(relationID string) bool
}

func (f sourceFiltered) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return f.SearchFiltered(ctx, q, k, f.allow)
}

// Search is Do for a bare query under a background context.
func (e *Engine) Search(query string, k int) ([]Match, error) {
	return matchesOf(e.Do(context.Background(), Request{Query: query, K: k}))
}

// SearchCost is Do returning the query's cost accounting alongside its
// matches: the distance computations, graph hops, PQ lookups and candidate
// counts the query actually performed — the hardware-independent
// complement to latency.
func (e *Engine) SearchCost(ctx context.Context, query string, k int) ([]Match, CostReport, error) {
	resp, err := e.Do(ctx, Request{Query: query, K: k})
	if err != nil {
		return nil, CostReport{}, err
	}
	return resp.Matches, resp.Cost, nil
}

// NumValues reports how many distinct attribute values are live (indexed
// and not tombstoned).
func (e *Engine) NumValues() int { return e.store.NumLiveValues() }

// NumRelations reports how many relations are live.
func (e *Engine) NumRelations() int { return e.store.NumLiveRelations() }

// Embed exposes the engine's encoder: the unit-norm embedding of any text,
// in the same space the index lives in. Useful for building custom
// similarity logic on top of the engine.
func (e *Engine) Embed(text string) []float32 { return e.model.Encode(text) }
