package semdisco

// This file is the benchmark harness deliverable: one benchmark per table
// and figure in the paper's evaluation, plus ablation benchmarks for the
// design decisions called out in DESIGN.md §5.
//
// Run everything:      go test -bench=. -benchmem
// One table:           go test -bench=BenchmarkTable1 -benchtime=1x
//
// Quality benchmarks render the regenerated table to the benchmark log on
// their first iteration and report headline metrics (MAP·1000) as custom
// benchmark metrics; latency benchmarks report milliseconds per query.
// The corpus is a scaled-down WikiTables-like profile so a full run stays
// in laptop territory; use cmd/semdisco-bench for full-scale runs.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"semdisco/internal/core"
	"semdisco/internal/corpus"
	"semdisco/internal/eval"
	"semdisco/internal/experiments"
	"semdisco/internal/obs"
	"semdisco/internal/vec"
)

var (
	benchOnce  sync.Once
	benchState *experiments.Bench
	benchErr   error
)

// benchSetup builds the shared experiment state once per test binary.
func benchSetup(b *testing.B) *experiments.Bench {
	b.Helper()
	benchOnce.Do(func() {
		p := corpus.WikiTables().Scaled(0.25) // 150 relations at LD
		benchState, benchErr = experiments.NewBench(experiments.Setup{
			Profile:        p,
			Dim:            192,
			Seed:           7,
			TrainBaselines: true,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchState
}

// qualityBenchmark regenerates one of the paper's quality tables.
func qualityBenchmark(b *testing.B, tableNo int) {
	bench := benchSetup(b)
	var rendered string
	for i := 0; i < b.N; i++ {
		out, err := bench.RunQualityTable(tableNo)
		if err != nil {
			b.Fatal(err)
		}
		rendered = out
	}
	b.Log("\n" + rendered)
	class := map[int]corpus.QueryClass{1: corpus.Long, 2: corpus.Moderate, 3: corpus.Short}[tableNo]
	for _, m := range []string{"CTS", "ANNS", "ExS"} {
		cell, err := bench.Quality(m, "LD", class, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.Report.MAP*1000, m+"-MAP‰")
	}
}

// BenchmarkTable1 regenerates Table 1: quality of long-query results.
func BenchmarkTable1(b *testing.B) { qualityBenchmark(b, 1) }

// BenchmarkTable2 regenerates Table 2: quality of moderate-query results.
func BenchmarkTable2(b *testing.B) { qualityBenchmark(b, 2) }

// BenchmarkTable3 regenerates Table 3: quality of short-query results.
func BenchmarkTable3(b *testing.B) { qualityBenchmark(b, 3) }

// BenchmarkTable4 regenerates Table 4: query time for CTS vs ANNS across
// partition sizes and query lengths.
func BenchmarkTable4(b *testing.B) {
	bench := benchSetup(b)
	var rendered string
	for i := 0; i < b.N; i++ {
		out, err := bench.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		rendered = out
	}
	b.Log("\n" + rendered)
	for _, m := range []string{"CTS", "ANNS"} {
		cell, err := bench.Latency(m, "LD", corpus.Long, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.MeanMS, m+"-ms")
	}
}

// BenchmarkFigure3 regenerates Figure 3: query response time of all eight
// methods per partition size and query length.
func BenchmarkFigure3(b *testing.B) {
	bench := benchSetup(b)
	var rendered string
	for i := 0; i < b.N; i++ {
		out, err := bench.RunFigure3()
		if err != nil {
			b.Fatal(err)
		}
		rendered = out
	}
	b.Log("\n" + rendered)
	for _, m := range experiments.Methods {
		cell, err := bench.Latency(m, "LD", corpus.Long, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell.MeanMS, m+"-ms")
	}
}

// BenchmarkCaseStudy53 regenerates the §5.3 qualitative comparison.
func BenchmarkCaseStudy53(b *testing.B) {
	bench := benchSetup(b)
	q := bench.Corpus.QueriesOf(corpus.Moderate)[0]
	var rendered string
	for i := 0; i < b.N; i++ {
		out, err := bench.CaseStudy(q.Text, 5)
		if err != nil {
			b.Fatal(err)
		}
		rendered = out
	}
	b.Log("\n" + rendered)
}

// mapOf evaluates a searcher's MAP over one query class on the LD split.
func mapOf(b *testing.B, bench *experiments.Bench, s core.Searcher, class corpus.QueryClass) float64 {
	b.Helper()
	sb := bench.PerSize["LD"]
	run := eval.Run{}
	qrels := eval.Qrels{}
	for _, q := range bench.Corpus.QueriesOf(class) {
		judged, ok := sb.TestQrels[q.ID]
		if !ok {
			continue
		}
		for rel, g := range judged {
			qrels.Add(q.ID, rel, g)
		}
		ms, err := s.Search(q.Text, 20)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]string, len(ms))
		for i, m := range ms {
			ids[i] = m.RelationID
		}
		run[q.ID] = ids
	}
	return eval.Evaluate(qrels, run).MAP
}

// tableLevelSearcher embeds whole tables as single vectors — the
// granularity the paper's contribution (ii) argues against.
type tableLevelSearcher struct {
	ids  []string
	embs [][]float32
	enc  interface{ Encode(string) []float32 }
}

func (t *tableLevelSearcher) Name() string { return "TableLevel" }

func (t *tableLevelSearcher) Search(query string, k int) ([]core.Match, error) {
	q := t.enc.Encode(query)
	top := vec.NewTopK(k)
	for i, e := range t.embs {
		top.Push(i, vec.Dot(q, e))
	}
	ranked := top.Sorted()
	out := make([]core.Match, len(ranked))
	for i, r := range ranked {
		out[i] = core.Match{RelationID: t.ids[r.ID], Score: r.Score}
	}
	return out, nil
}

// BenchmarkAblationGranularity compares value-level embedding (the paper's
// contribution) against table-level embedding on retrieval quality.
func BenchmarkAblationGranularity(b *testing.B) {
	bench := benchSetup(b)
	sb := bench.PerSize["LD"]
	tl := &tableLevelSearcher{enc: sb.Model}
	for _, r := range sb.Fed.Relations() {
		tl.ids = append(tl.ids, r.ID)
		tl.embs = append(tl.embs, sb.Model.Encode(r.Text()))
	}
	var valueMAP, tableMAP float64
	for i := 0; i < b.N; i++ {
		valueMAP = mapOf(b, bench, sb.Searchers["ExS"], corpus.Moderate)
		tableMAP = mapOf(b, bench, tl, corpus.Moderate)
	}
	b.ReportMetric(valueMAP*1000, "value-MAP‰")
	b.ReportMetric(tableMAP*1000, "table-MAP‰")
	b.Logf("value-level MAP=%.3f table-level MAP=%.3f", valueMAP, tableMAP)
}

// BenchmarkAblationUMAP compares CTS built with UMAP, PCA and no reduction.
func BenchmarkAblationUMAP(b *testing.B) {
	bench := benchSetup(b)
	sb := bench.PerSize["LD"]
	variants := map[string]core.Reduction{
		"umap": core.ReduceUMAP,
		"pca":  core.ReducePCA,
		"none": core.ReduceNone,
	}
	for name, red := range variants {
		cts, err := core.NewCTS(sb.Emb, core.CTSOptions{Seed: 7, Reduction: red})
		if err != nil {
			b.Fatal(err)
		}
		var m float64
		for i := 0; i < b.N; i++ {
			m = mapOf(b, bench, cts, corpus.Moderate)
		}
		b.ReportMetric(m*1000, name+"-MAP‰")
		b.Logf("CTS reduction=%s clusters=%d MAP=%.3f", name, cts.NumClusters(), m)
	}
}

// BenchmarkAblationPQ compares ANNS with and without Product Quantization
// on quality and storage.
func BenchmarkAblationPQ(b *testing.B) {
	bench := benchSetup(b)
	sb := bench.PerSize["LD"]
	withPQ, err := core.NewANNS(sb.Emb, core.ANNSOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	withoutPQ, err := core.NewANNS(sb.Emb, core.ANNSOptions{Seed: 7, DisablePQ: true})
	if err != nil {
		b.Fatal(err)
	}
	var mPQ, mRaw float64
	for i := 0; i < b.N; i++ {
		mPQ = mapOf(b, bench, withPQ, corpus.Moderate)
		mRaw = mapOf(b, bench, withoutPQ, corpus.Moderate)
	}
	b.ReportMetric(mPQ*1000, "pq-MAP‰")
	b.ReportMetric(mRaw*1000, "raw-MAP‰")
	b.ReportMetric(float64(withPQ.Stats().VectorBytes), "pq-bytes")
	b.ReportMetric(float64(withoutPQ.Stats().VectorBytes), "raw-bytes")
	b.Logf("PQ: MAP=%.3f %dB; raw: MAP=%.3f %dB",
		mPQ, withPQ.Stats().VectorBytes, mRaw, withoutPQ.Stats().VectorBytes)
}

// BenchmarkAblationEfSearch sweeps the ANNS beam width.
func BenchmarkAblationEfSearch(b *testing.B) {
	bench := benchSetup(b)
	sb := bench.PerSize["LD"]
	queries := bench.Corpus.QueriesOf(corpus.Moderate)
	for _, ef := range []int{16, 64, 256} {
		anns, err := core.NewANNS(sb.Emb, core.ANNSOptions{Seed: 7, DisablePQ: true, EfSearch: ef})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("ef=%d", ef), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := anns.Search(queries[i%len(queries)].Text, 20); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mapOf(b, bench, anns, corpus.Moderate)*1000, "MAP‰")
		})
	}
}

// BenchmarkAblationAggregation compares the §5.3 aggregation variants:
// mean (the paper's, core.ExS), max, and the mean of the top 5 value
// scores (valueScan). On the first moderate query each relation's best
// value bounds its top-m mean, which bounds its mean, so the top scores
// must order max ≥ top-m ≥ mean.
func BenchmarkAblationAggregation(b *testing.B) {
	bench := benchSetup(b)
	emb := bench.PerSize["LD"].Emb
	variants := []struct {
		name string
		s    core.Searcher
	}{
		{"mean", core.NewExS(emb, core.ExSOptions{})},
		{"max", valueScan{emb, 1}},
		{"topM", valueScan{emb, 5}},
	}
	probe := bench.Corpus.QueriesOf(corpus.Moderate)[0].Text
	var top []float32
	for _, v := range variants {
		name, s := v.name, v.s
		var m float64
		for i := 0; i < b.N; i++ {
			m = mapOf(b, bench, s, corpus.Moderate)
		}
		b.ReportMetric(m*1000, name+"-MAP‰")
		b.Logf("ExS agg=%s MAP=%.3f", name, m)
		got, err := s.Search(probe, 1)
		if err != nil || len(got) == 0 {
			b.Fatalf("agg=%s: no result for %q (%v)", name, probe, err)
		}
		top = append(top, got[0].Score)
	}
	if mean, max, topM := top[0], top[1], top[2]; !(max >= topM && topM >= mean) {
		b.Fatalf("aggregation ordering violated on %q: max=%v topM=%v mean=%v", probe, max, topM, mean)
	}
}

// valueScan is the ablation's max / top-m searcher: every value of every
// relation is compared with the query, and a relation scores the mean of
// its m best value similarities (m = 1 is max). Relations scoring below
// zero are dropped, like ExS's default threshold.
type valueScan struct {
	emb *core.Embedded
	m   int
}

func (s valueScan) Name() string { return fmt.Sprintf("top-%d", s.m) }

func (s valueScan) Search(query string, k int) ([]core.Match, error) {
	q := s.emb.Enc.Encode(query)
	scores := make([]float32, len(s.emb.RelIDs))
	for rel, idxs := range s.emb.PerRel {
		sims := make([]float32, 0, len(idxs))
		for _, vi := range idxs {
			sims = append(sims, vec.Dot(q, s.emb.Values[vi].Vec))
		}
		sort.Slice(sims, func(i, j int) bool { return sims[i] > sims[j] })
		sims = sims[:min(s.m, len(sims))]
		var sum float32
		for _, x := range sims {
			sum += x
		}
		if len(sims) > 0 {
			scores[rel] = sum / float32(len(sims))
		}
	}
	var out []core.Match
	for _, sc := range vec.TopKDesc(scores, k) {
		if sc.Score < 0 {
			break
		}
		out = append(out, core.Match{RelationID: s.emb.RelIDs[sc.ID], Score: sc.Score})
	}
	return out, nil
}

// BenchmarkEngineOpen measures full index build time per method.
func BenchmarkEngineOpen(b *testing.B) {
	bench := benchSetup(b)
	fed := bench.PerSize["SD"].Fed
	for _, m := range []Method{ExS, ANNS, CTS} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Open(fed, Config{Method: m, Dim: 128, Seed: 7,
					Lexicon: bench.Corpus.Lexicon}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineSearch measures steady-state query latency per method on
// the public API.
func BenchmarkEngineSearch(b *testing.B) {
	bench := benchSetup(b)
	fed := bench.PerSize["LD"].Fed
	queries := bench.Corpus.QueriesOf(corpus.Short)
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(fed, Config{Method: m, Dim: 192, Seed: 7, Lexicon: bench.Corpus.Lexicon})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(queries[i%len(queries)].Text, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineBatch measures one 64-query DoBatch per method on the
// public API, over the corpus of bench/'s cts-cluster workload (WikiTables
// at scale 0.2, seed 7, dim 256, indexes built on one worker); ns/op and
// allocs/op are per batch. It reproduces the in-process batch profile
// without the HTTP harness:
//
//	go test -run '^$' -bench EngineBatch -benchtime 200x -cpuprofile cpu.out .
func BenchmarkEngineBatch(b *testing.B) {
	p := corpus.WikiTables().Scaled(0.2)
	p.Seed = 7
	c := corpus.Generate(p)
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{Text: c.Queries[i*len(c.Queries)/len(queries)].Text, K: 10}
	}
	for _, m := range []Method{ExS, ANNS, CTS} {
		cfg := Config{Method: m, Dim: 256, Seed: 7, Lexicon: c.Lexicon}
		cfg.ANNS.Build.Workers = 1
		cfg.CTS.Build.Workers = 1
		eng, err := Open(c.Federation, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.DoBatch(context.Background(), queries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCostAccounting measures what per-query cost accounting costs:
// ExS through core.Search without and with an obs.Cost in the context,
// over the corpus of bench/'s exs-scan workload (WikiTables at scale 4,
// seed 7, dim 256). ns/op is per query; on minus off is the overhead.
//
//	go test -run '^$' -bench CostAccounting -count 5 .
func BenchmarkCostAccounting(b *testing.B) {
	p := corpus.WikiTables().Scaled(4)
	p.Seed = 7
	c := corpus.Generate(p)
	eng, err := Open(c.Federation, Config{Method: ExS, Dim: 256, Seed: 7, Lexicon: c.Lexicon})
	if err != nil {
		b.Fatal(err)
	}
	for _, accounted := range []bool{false, true} {
		b.Run(map[bool]string{false: "off", true: "on"}[accounted], func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if accounted {
					ctx = obs.ContextWithCost(context.Background(), &obs.Cost{})
				}
				q := c.Queries[i%len(c.Queries)].Text
				if _, err := core.Search(ctx, eng.store, eng.model, nil, q, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNetCoordinator measures the coordinator↔shard hop: a
// NetCoordinator over 2 sets × 2 replicas of ExS shards on loopback
// servers, over the corpus of bench/'s coord-fanout workload (WikiTables at
// scale 1, seed 7, dim 256). ns/op and allocs/op are per search (search)
// and per 64-query batch (batch64), and include the shards' side, which
// runs in the same process.
//
//	go test -run '^$' -bench NetCoordinator -benchtime 2000x .
func BenchmarkNetCoordinator(b *testing.B) {
	p := corpus.WikiTables()
	p.Seed = 7
	c := corpus.Generate(p)
	cfg := Config{Method: ExS, Dim: 256, Seed: 7, Lexicon: c.Lexicon}
	const sets, replicas = 2, 2
	urls := make([][]string, sets)
	for s := range urls {
		for r := 0; r < replicas; r++ {
			eng, err := NewNetShard(c.Federation, NetShardConfig{Config: cfg, Sets: sets, Set: s})
			if err != nil {
				b.Fatal(err)
			}
			urls[s] = append(urls[s], serveShard(b, eng).URL)
		}
	}
	nc, err := NewNetCoordinator(c.Federation, urls, NetCoordinatorConfig{Config: cfg})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("search", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nc.SearchContext(ctx, c.Queries[i%len(c.Queries)].Text, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	batch := make([]Query, 64)
	for i := range batch {
		batch[i] = Query{Text: c.Queries[i*len(c.Queries)/len(batch)].Text, K: 10}
	}
	b.Run("batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := nc.DoBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
