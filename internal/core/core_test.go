package core

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"semdisco/internal/corpus"
	"semdisco/internal/embed"
	"semdisco/internal/eval"
	"semdisco/internal/obs"
	"semdisco/internal/table"
)

// covidFederation reproduces the paper's Figure 1 motivating example.
func covidFederation(t testing.TB) (*table.Federation, *embed.Model) {
	t.Helper()
	fed := table.NewFederation()
	add := func(r *table.Relation) {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(&table.Relation{
		ID: "WHO", Source: "WHO",
		Columns: []string{"Region", "Date", "Vaccine", "Dosage"},
		Rows: [][]string{
			{"North America", "2021-01-01", "Comirnaty", "First"},
			{"Europe", "2021-02-01", "Vaxzevria", "Second"},
			{"Asia", "2021-03-01", "CoronaVac", "First"},
			{"Africa", "2021-04-01", "Covaxin", "Second"},
		},
	})
	add(&table.Relation{
		ID: "CDC", Source: "CDC",
		Columns: []string{"State", "Date", "Immunogen", "Manufacturer"},
		Rows: [][]string{
			{"California", "2021-01-01", "mRNA", "Moderna"},
			{"Texas", "2021-02-01", "Vector Virus", "Janssen"},
			{"Florida", "2021-03-01", "mRNA", "Pfizer"},
			{"New York", "2021-04-01", "Protein Subunit", "Novavax"},
		},
	})
	add(&table.Relation{
		ID: "ECDC", Source: "ECDC",
		Columns: []string{"Country", "Date", "Trade Name", "Disease"},
		Rows: [][]string{
			{"Germany", "2021-01-01", "Pfizer-BioNTech", "COVID-19"},
			{"France", "2021-02-01", "AstraZeneca", "COVID-19"},
			{"Spain", "2021-03-01", "Moderna", "COVID-19"},
			{"Italy", "2021-04-01", "Pfizer-BioNTech", "COVID-19"},
		},
	})
	// Unrelated distractor tables.
	add(&table.Relation{
		ID: "FOOTBALL", Source: "UEFA",
		Columns: []string{"Club", "Stadium", "Capacity"},
		Rows: [][]string{
			{"Ajax", "Johan Cruyff Arena", "54990"},
			{"Bayern", "Allianz Arena", "75000"},
		},
	})
	add(&table.Relation{
		ID: "GEOLOGY", Source: "USGS",
		Columns: []string{"Mineral", "Hardness", "Color"},
		Rows: [][]string{
			{"Quartz", "7", "Clear"},
			{"Talc", "1", "White"},
		},
	})

	lex := embed.NewLexicon()
	covid := lex.AddSynonyms("COVID", "COVID-19", "coronavirus", "SARS-CoV-2")
	lex.Add(covid, "Comirnaty")
	lex.Add(covid, "Vaxzevria")
	lex.Add(covid, "CoronaVac")
	lex.Add(covid, "Covaxin")
	lex.Add(covid, "mRNA")
	lex.Add(covid, "Vector Virus")
	lex.Add(covid, "Protein Subunit")
	lex.Add(covid, "Pfizer-BioNTech")
	lex.Add(covid, "AstraZeneca")
	lex.AddSynonyms("vaccine", "immunogen", "dosage", "vaccination")
	lex.AddSynonyms("football", "club", "stadium")
	model := embed.New(embed.Config{Dim: 128, Seed: 42, Lexicon: lex})
	return fed, model
}

func searcherSet(t testing.TB, emb *Embedded) []EncodedSearcher {
	t.Helper()
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true})
	if err != nil {
		t.Fatal(err)
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	return []EncodedSearcher{NewExS(emb, ExSOptions{}), anns, cts}
}

// TestMotivatingExample is the paper's §2 scenario: the keyword "COVID"
// must retrieve WHO and CDC even though neither contains the string.
func TestMotivatingExample(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, s := range searcherSet(t, emb) {
		got, err := s.Search("COVID", 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) != 3 {
			t.Fatalf("%s: got %d results: %v", s.Name(), len(got), got)
		}
		found := map[string]bool{}
		for _, m := range got {
			found[m.RelationID] = true
		}
		for _, want := range []string{"WHO", "CDC", "ECDC"} {
			if !found[want] {
				t.Errorf("%s: top-3 for \"COVID\" misses %s: %v", s.Name(), want, got)
			}
		}
	}
}

func TestEmbedFederation(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	if emb.NumRelations() != 5 {
		t.Fatalf("relations=%d", emb.NumRelations())
	}
	if emb.NumValues() == 0 {
		t.Fatal("no values embedded")
	}
	// Dedup: ECDC repeats "COVID-19" 4x and "Pfizer-BioNTech" 2x; its
	// unique-value count must be below its cell count.
	ecdcIdx := -1
	for i, id := range emb.RelIDs {
		if id == "ECDC" {
			ecdcIdx = i
		}
	}
	if ecdcIdx < 0 {
		t.Fatal("ECDC missing")
	}
	if len(emb.PerRel[ecdcIdx]) >= 16 {
		t.Fatalf("ECDC values not deduplicated: %d", len(emb.PerRel[ecdcIdx]))
	}
	// Weights preserve multiplicity.
	if emb.TotalWeight[ecdcIdx] != 16 { // 16 cells; caption empty
		t.Fatalf("ECDC total weight=%v want 16", emb.TotalWeight[ecdcIdx])
	}
}

func TestThresholdFiltering(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	s := NewExS(emb, ExSOptions{Threshold: 0.99})
	got, err := s.Search("COVID vaccine", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("threshold 0.99 should filter everything, got %v", got)
	}
}

// TestExSMatchesOracle: the search equals the independent
// value-by-value oracle bit for bit, across k and thresholds, on both
// centroid kernel bodies.
func TestExSMatchesOracle(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	forEachHalfBody(t, func(t *testing.T) {
		for _, h := range []float32{0, 0.05, 0.2} {
			s := NewExS(emb, ExSOptions{Threshold: h})
			for _, query := range []string{"COVID", "COVID vaccine europe", "football stadium", "quartz hardness", "zzz"} {
				q := model.Encode(query)
				for _, k := range []int{1, 2, 5, 50} {
					got, err := s.SearchEncoded(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleRank(emb, q, k, h); !reflect.DeepEqual(got, want) {
						t.Fatalf("h=%v %q k=%d:\n got: %v\nwant: %v", h, query, k, got, want)
					}
				}
			}
		}
	})
}

// TestHugeKIsBoundedByTheCorpus: k reaches SearchEncoded from the wire, so
// no method may size anything by it — 1<<40 Match values are 24 TiB.
func TestHugeKIsBoundedByTheCorpus(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	q := model.Encode("COVID vaccine")
	for _, s := range searcherSet(t, emb) {
		got, err := s.SearchEncoded(context.Background(), q, 1<<40)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) == 0 || len(got) > emb.NumRelations() {
			t.Fatalf("%s: %d matches for k=1<<40 over %d relations", s.Name(), len(got), emb.NumRelations())
		}
		batch, err := s.(BatchSearcher).SearchEncodedBatch(context.Background(), [][]float32{q}, []int{1 << 40}, nil)
		if err != nil || !reflect.DeepEqual(batch[0], got) {
			t.Fatalf("%s: batch %v (%v), single %v", s.Name(), batch, err, got)
		}
	}
}

func TestKZeroAndTruncation(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	s := NewExS(emb, ExSOptions{})
	if got, _ := s.Search("COVID", 0); got != nil {
		t.Fatalf("k=0 gave %v", got)
	}
	got, _ := s.Search("COVID", 2)
	if len(got) != 2 {
		t.Fatalf("k=2 gave %d results", len(got))
	}
}

func TestScoresDescending(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, s := range searcherSet(t, emb) {
		got, err := s.Search("COVID vaccine europe", 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				t.Fatalf("%s: scores not descending: %v", s.Name(), got)
			}
		}
	}
}

// TestQualityOnSyntheticCorpus checks the paper's headline shape on a small
// generated corpus: all three methods beat random, and CTS is at least as
// good as ExS on MAP (the clustering focuses the scoring).
func TestQualityOnSyntheticCorpus(t *testing.T) {
	p := corpus.WikiTables()
	p.NumRelations = 120
	p.NumTopics = 10
	p.QueriesPerClass = 6
	p.JudgedPerQuery = 20
	c := corpus.Generate(p)
	model := c.NewEncoder(128, 1)
	emb := EmbedFederation(c.Federation, model)

	anns, err := NewANNS(emb, ANNSOptions{Seed: 2, DisablePQ: true})
	if err != nil {
		t.Fatal(err)
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 2, MinClusterSize: 6, UMAPEpochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	methods := []Searcher{NewExS(emb, ExSOptions{}), anns, cts}

	reports := map[string]eval.Report{}
	for _, s := range methods {
		run := eval.Run{}
		for _, q := range c.QueriesOf(corpus.Moderate) {
			ms, err := s.Search(q.Text, 20)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(ms))
			for i, m := range ms {
				ids[i] = m.RelationID
			}
			run[q.ID] = ids
		}
		reports[s.Name()] = eval.Evaluate(filterQrels(c.Qrels, c.QueriesOf(corpus.Moderate)), run)
	}
	for name, rep := range reports {
		if rep.MAP < 0.3 {
			t.Errorf("%s MAP=%.3f too low (semantic matching not working)", name, rep.MAP)
		}
		t.Logf("%s: MAP=%.3f MRR=%.3f NDCG@10=%.3f", name, rep.MAP, rep.MRR, rep.NDCG[10])
	}
	if reports["CTS"].MAP < reports["ExS"].MAP-0.1 {
		t.Errorf("CTS (%.3f) fell far below ExS (%.3f)", reports["CTS"].MAP, reports["ExS"].MAP)
	}
}

func filterQrels(q eval.Qrels, queries []corpus.Query) eval.Qrels {
	out := eval.Qrels{}
	for _, query := range queries {
		for doc, g := range q[query.ID] {
			out.Add(query.ID, doc, g)
		}
	}
	return out
}

func TestCTSClusterAccessors(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	cts, err := NewCTS(emb, CTSOptions{Seed: 3, MinClusterSize: 4, UMAPEpochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if cts.NumClusters() < 1 {
		t.Fatal("no clusters")
	}
	for i := 0; i < emb.NumValues(); i++ {
		if c := cts.ClusterOf(i); c < 0 || c >= cts.NumClusters() {
			t.Fatalf("value %d assigned to cluster %d of %d", i, c, cts.NumClusters())
		}
	}
}

func TestANNSWithPQ(t *testing.T) {
	p := corpus.WikiTables()
	p.NumRelations = 60
	p.NumTopics = 6
	p.QueriesPerClass = 2
	c := corpus.Generate(p)
	model := c.NewEncoder(64, 4)
	emb := EmbedFederation(c.Federation, model)
	anns, err := NewANNS(emb, ANNSOptions{Seed: 4, PQTrainSize: 128, PQM: 8, PQK: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !anns.Stats().Compressed {
		t.Fatal("PQ not active")
	}
	got, err := anns.Search(c.Queries[0].Text, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("PQ-compressed ANNS returned nothing")
	}
}

// TestANNSBuildPhasesDisjoint pins what the two build gauges of a PQ-coded
// ANNS build time: pq_train is codebook training, hnsw_insert the graph
// insertions — made in the build, or, below the scan bound, by the first
// reader of the graph (here IndexHealth) — so both are positive and
// together fit inside the wall clock of the build and that first read
// instead of counting training twice.
func TestANNSBuildPhasesDisjoint(t *testing.T) {
	p := corpus.WikiTables()
	p.NumRelations = 60
	p.NumTopics = 6
	p.QueriesPerClass = 2
	c := corpus.Generate(p)
	emb := EmbedFederation(c.Federation, c.NewEncoder(64, 4))
	emb.Obs = obs.NewRegistry()
	start := time.Now()
	anns, err := NewANNS(emb, ANNSOptions{Seed: 4, PQTrainSize: 128, PQM: 8, PQK: 32})
	if err != nil {
		t.Fatal(err)
	}
	anns.IndexHealth()
	wall := time.Since(start).Seconds()
	phase := func(name string) float64 {
		return emb.Obs.Gauge(obs.L(MetricBuildSeconds, "phase", name)).Value()
	}
	train, insert := phase("pq_train"), phase("hnsw_insert")
	if train <= 0 || insert <= 0 {
		t.Fatalf("pq_train %v s, hnsw_insert %v s: both phases must be recorded", train, insert)
	}
	if train+insert > wall {
		t.Fatalf("pq_train %v s + hnsw_insert %v s exceed the build's %v s", train, insert, wall)
	}
}

func TestCTSEmptyFederation(t *testing.T) {
	fed := table.NewFederation()
	model := embed.New(embed.Config{Dim: 32, Seed: 1})
	emb := EmbedFederation(fed, model)
	if _, err := NewCTS(emb, CTSOptions{}); err == nil {
		t.Fatal("empty federation must error")
	}
}

// A negative size or count in CTSOptions is an error naming the field, not
// a makeslice panic deep in the build or a silent default.
func TestCTSRejectsNegativeOptions(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, c := range []struct {
		field string
		opt   CTSOptions
	}{
		{"ReducedDim", CTSOptions{ReducedDim: -1}},
		{"SampleCap", CTSOptions{SampleCap: -1}},
		{"UMAPEpochs", CTSOptions{UMAPEpochs: -5}},
		{"MinClusterSize", CTSOptions{MinClusterSize: -3}},
	} {
		cts, err := NewCTS(emb, c.opt)
		if err == nil || cts != nil {
			t.Errorf("%s: NewCTS(%+v) = %v, %v; want nil and an error", c.field, c.opt, cts, err)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name the field", c.field, err)
		}
	}
}

func TestSearchPRF(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, s := range searcherSet(t, emb) {
		got, err := SearchPRF(context.Background(), s, emb, "COVID", 3, PRFOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(got) == 0 {
			t.Fatalf("%s: PRF returned nothing", s.Name())
		}
		found := map[string]bool{}
		for _, m := range got {
			found[m.RelationID] = true
		}
		// Feedback must not derail the obvious answer set.
		if !found["ECDC"] && !found["WHO"] && !found["CDC"] {
			t.Fatalf("%s: PRF lost all vaccine tables: %v", s.Name(), got)
		}
		// Scores stay sorted.
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				t.Fatalf("%s: PRF scores not sorted", s.Name())
			}
		}
	}
}

func TestSearchPRFZeroK(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	s := NewExS(emb, ExSOptions{})
	got, err := SearchPRF(context.Background(), s, emb, "COVID", 0, PRFOptions{})
	if err != nil || got != nil {
		t.Fatalf("k=0: %v %v", got, err)
	}
}

func TestExplain(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	exp, err := emb.Explain("COVID", "ECDC", 3)
	if err != nil {
		t.Fatal(err)
	}
	if exp.RelationID != "ECDC" || len(exp.Top) != 3 {
		t.Fatalf("explanation=%+v", exp)
	}
	// The literal match must be the top contributor.
	if exp.Top[0].Value != "COVID-19" {
		t.Fatalf("top contributor %q, want COVID-19 (%+v)", exp.Top[0].Value, exp.Top)
	}
	if exp.Top[0].Share <= 0 || exp.Top[0].Share > 1 {
		t.Fatalf("share=%v", exp.Top[0].Share)
	}
	if exp.Score <= 0 {
		t.Fatalf("score=%v", exp.Score)
	}
	if _, err := emb.Explain("COVID", "missing", 3); err == nil {
		t.Fatal("unknown relation must error")
	}
}
