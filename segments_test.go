package semdisco

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// churnTopics gives each synthetic relation a distinct repeatable topic.
var churnTopics = []string{
	"solar panels photovoltaic energy", "marine biology coral fish",
	"steam locomotive railway trains", "volcanic basalt magma geology",
	"baroque violin concerto music", "quantum entanglement photons physics",
	"sourdough fermentation baking bread", "glacier moraine ice erosion",
	"honeybee pollination hive nectar", "suspension bridge cable engineering",
	"rainforest canopy epiphyte ecology", "ceramic kiln glaze pottery",
	"cardiac ventricle artery anatomy", "sailing regatta spinnaker wind",
	"copper smelting ore metallurgy", "alpine meadow wildflower botany",
}

var churnQueries = []string{
	"solar energy", "coral fish", "railway trains", "magma geology",
	"violin music", "quantum physics", "baking bread", "honeybee nectar",
}

func churnRelation(id string, i int) *Relation {
	topic := churnTopics[i%len(churnTopics)]
	return &Relation{
		ID: id, Source: fmt.Sprintf("src-%d", i%3),
		Columns: []string{"A", "B"},
		Rows:    [][]string{{topic + " alpha", topic + " beta"}, {topic + " gamma", "42"}},
	}
}

// churnConfig pins the IDF to a constant so a churned engine and a fresh
// build over the surviving corpus score identically — corpus-derived IDF
// would differ between the two corpora by construction.
func churnConfig(seg SegmentsConfig) Config {
	return Config{
		Method: ExS, Dim: 64, Seed: 1,
		IDF:      func(string) float64 { return 1 },
		Segments: seg,
	}
}

func churnEngine(t testing.TB, n int, seg SegmentsConfig) (*Engine, map[string]*Relation) {
	t.Helper()
	fed := NewFederation()
	rels := make(map[string]*Relation, n)
	for i := 0; i < n; i++ {
		r := churnRelation(fmt.Sprintf("rel-%02d", i), i)
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
		rels[r.ID] = r
	}
	eng, err := Open(fed, churnConfig(seg))
	if err != nil {
		t.Fatal(err)
	}
	return eng, rels
}

// freshEngine rebuilds an engine from scratch over the given live corpus in
// the given order — the reference a churned engine must match.
func freshEngine(t testing.TB, rels map[string]*Relation, order []string) *Engine {
	t.Helper()
	fed := NewFederation()
	for _, id := range order {
		if err := fed.Add(rels[id]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := Open(fed, churnConfig(SegmentsConfig{Manual: true}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineDeleteUpdate: Delete and Update are visible across every
// search surface of the engine — Search, SearchBatch, SearchSources and
// SearchDatasets — for all three methods.
func TestEngineDeleteUpdate(t *testing.T) {
	fed := vaccineFederation(t)
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(fed, Config{
			Method: m, Dim: 128, Seed: 1,
			Lexicon: vaccineLexicon(),
			CTS:     CTSOptions{MinClusterSize: 4, UMAPEpochs: 60},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := eng.Delete("who"); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if eng.Has("who") || !eng.Has("ecdc") {
			t.Fatalf("%v: Has after delete", m)
		}
		if eng.NumRelations() != 2 {
			t.Fatalf("%v: NumRelations=%d", m, eng.NumRelations())
		}
		assertNo := func(surface string, ms []Match) {
			t.Helper()
			for _, match := range ms {
				if match.RelationID == "who" {
					t.Fatalf("%v: deleted relation served by %s: %v", m, surface, ms)
				}
			}
		}
		ms, err := eng.Search("COVID vaccine", 5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("Search", ms)
		ms, err = matchesOf(eng.Do(context.Background(), Request{Query: "COVID vaccine", K: 5, Sources: []string{"WHO", "ECDC"}}))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("SearchSources", ms)
		batch, err := eng.DoBatch(context.Background(), []Query{{Text: "COVID vaccine", K: 5}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("SearchBatch", batch[0].Matches)
		ds, err := eng.SearchDatasets(context.Background(), "COVID vaccine", 5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, d := range ds {
			assertNo("SearchDatasets", d.Relations)
			if d.Source == "WHO" {
				t.Fatalf("%v: dataset of a fully deleted source survives: %+v", m, ds)
			}
		}

		// Update: minerals becomes a vaccine table and must start matching.
		if err := eng.Update(&Relation{
			ID: "minerals", Source: "USGS",
			Columns: []string{"Region", "Vaccine"},
			Rows:    [][]string{{"Asia", "Comirnaty COVID-19 vaccine"}},
		}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		ms, err = eng.Search("COVID vaccine", 3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		found := false
		for _, match := range ms {
			found = found || match.RelationID == "minerals"
		}
		if !found {
			t.Fatalf("%v: updated relation not served: %v", m, ms)
		}
		if err := eng.Update(&Relation{ID: "ghost", Columns: []string{"A"}, Rows: [][]string{{"x"}}}); err == nil {
			t.Fatalf("%v: update of unknown relation accepted", m)
		}
		if err := eng.Delete("ghost"); err == nil {
			t.Fatalf("%v: delete of unknown relation accepted", m)
		}
	}
}

// TestEngineChurnEquivalence is the PR's acceptance pin: an engine churned
// through deletes (≥20% of relations), updates and adds, with at least one
// completed compaction, returns ExS results bit-identical to an engine
// freshly built from the surviving corpus.
func TestEngineChurnEquivalence(t *testing.T) {
	const n = 20
	eng, rels := churnEngine(t, n, SegmentsConfig{Manual: true, MaxMutableValues: 8})

	// Churn: delete 5/20 (25%), update 3, add 5, with a seal mid-stream.
	for _, id := range []string{"rel-01", "rel-05", "rel-09", "rel-13", "rel-17"} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(rels, id)
	}
	for i, id := range []string{"rel-02", "rel-10", "rel-18"} {
		r := churnRelation(id, i+7)
		r.Rows = append(r.Rows, []string{"updated telescope observatory", "astronomy"})
		if err := eng.Update(r); err != nil {
			t.Fatal(err)
		}
		rels[id] = r
	}
	if err := eng.CompactionCheck(); err != nil { // seal the mutable segment
		t.Fatal(err)
	}
	for i := n; i < n+5; i++ {
		r := churnRelation(fmt.Sprintf("rel-%02d", i), i)
		if err := eng.Add(r); err != nil {
			t.Fatal(err)
		}
		rels[r.ID] = r
	}

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	st := eng.SegmentStats()
	if st.Seals < 1 || st.Compactions < 1 {
		t.Fatalf("no seal or no compaction completed: %+v", st)
	}
	if st.DeadRelations != 0 || st.Segments != 1 {
		t.Fatalf("compaction left garbage: %+v", st)
	}
	if st.LiveRelations != len(rels) {
		t.Fatalf("live relations %d, want %d", st.LiveRelations, len(rels))
	}

	live := eng.LiveRelations()
	if len(live) != len(rels) {
		t.Fatalf("LiveRelations: %d ids, want %d", len(live), len(rels))
	}
	fresh := freshEngine(t, rels, live)
	for _, q := range churnQueries {
		got, err := eng.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleSearch(t, fresh, q, 8); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q diverged from the oracle over a fresh build:\n got: %v\nwant: %v", q, got, want)
		}
	}
}

// TestEngineSearchNonBlockingDuringCompaction: with no mutations in
// flight, concurrent searches across a full seal → merge → swap cycle
// return bit-identical results to the pre-compaction snapshot — readers
// never block on, or observe, the rebuild. Run with -race this also
// checks the reader/maintenance synchronization.
func TestEngineSearchNonBlockingDuringCompaction(t *testing.T) {
	const n = 16
	eng, _ := churnEngine(t, n, SegmentsConfig{Manual: true, MaxMutableValues: 4})
	for i := n; i < n+6; i++ {
		if err := eng.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"rel-03", "rel-07", "rel-11", "rel-15", "rel-19"} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	expected := make(map[string][]Match)
	for _, q := range churnQueries {
		m, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = m
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := churnQueries[(w+i)%len(churnQueries)]
				var got []Match
				var err error
				if w%2 == 0 {
					got, err = eng.Search(q, 5)
				} else {
					var batch []*Response
					batch, err = eng.DoBatch(context.Background(), []Query{{Text: q, K: 5}})
					if err == nil {
						got = batch[0].Matches
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, expected[q]) {
					errs <- fmt.Errorf("query %q changed during compaction:\n got: %v\nwant: %v", q, got, expected[q])
					return
				}
			}
		}(w)
	}

	if err := eng.CompactionCheck(); err != nil { // seal + background index build
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil { // merge + swap
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.SegmentStats().Compactions < 1 {
		t.Fatal("compaction did not run")
	}
}

// TestEngineSaveLoadChurned: a churned multi-segment engine survives a
// Save/Load roundtrip — segment layout, tombstones and results intact.
func TestEngineSaveLoadChurned(t *testing.T) {
	fed := vaccineFederation(t)
	eng, err := Open(fed, Config{
		Method: ExS, Dim: 128, Seed: 1,
		Segments: SegmentsConfig{Manual: true, MaxMutableValues: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(&Relation{
		ID: "mutable-flu", Source: "WHO",
		Columns: []string{"Region", "Strain"},
		Rows:    [][]string{{"Europe", "influenza H1N1"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactionCheck(); err != nil { // seal: multi-segment image
		t.Fatal(err)
	}
	if err := eng.Delete("minerals"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	a, b := eng.SegmentStats(), re.SegmentStats()
	if a.Segments != b.Segments || a.LiveRelations != b.LiveRelations || a.DeadRelations != b.DeadRelations {
		t.Fatalf("segment stats diverged:\n saved:  %+v\n loaded: %+v", a, b)
	}
	if !reflect.DeepEqual(eng.LiveRelations(), re.LiveRelations()) {
		t.Fatal("live-relation order lost in roundtrip")
	}
	for _, q := range []string{"COVID vaccine", "influenza", "mineral hardness"} {
		x, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		y, err := re.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("query %q diverged after load:\n got: %v\nwant: %v", q, y, x)
		}
	}
	// The restored engine keeps mutating and compacting.
	if err := re.DeleteRelation(context.Background(), "mutable-flu"); err != nil {
		t.Fatal(err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if re.Has("mutable-flu") || re.SegmentStats().DeadRelations != 0 {
		t.Fatalf("post-load churn broken: %+v", re.SegmentStats())
	}
}

// TestEngineAutoMaintenance: with automatic maintenance on (the default), a
// burst of churn past the policy thresholds seals and compacts on its own —
// no explicit Compact calls.
func TestEngineAutoMaintenance(t *testing.T) {
	eng, _ := churnEngine(t, 8, SegmentsConfig{
		MaxMutableValues: 8,
		MaxDeadFraction:  0.1,
		DriftCheckEvery:  4,
	})
	stop := eng.StartCompactor()
	defer stop()
	for i := 8; i < 40; i++ {
		if err := eng.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if err := eng.Delete(fmt.Sprintf("rel-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Automatic passes run in the background; drive one synchronous check
	// to make the test deterministic about the end state.
	if err := eng.CompactionCheck(); err != nil {
		t.Fatal(err)
	}
	st := eng.SegmentStats()
	if st.Seals == 0 && st.Compactions == 0 {
		t.Fatalf("no automatic maintenance happened: %+v", st)
	}
	if eng.NumRelations() != 24 {
		t.Fatalf("NumRelations=%d, want 24", eng.NumRelations())
	}
}
