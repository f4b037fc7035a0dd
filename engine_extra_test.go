package semdisco

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"

	"semdisco/internal/core"
)

func TestEngineAdd(t *testing.T) {
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(vaccineFederation(t), Config{
			Method: m, Dim: 256, Seed: 5, Lexicon: vaccineLexicon(),
			CTS: CTSOptions{MinClusterSize: 4, UMAPEpochs: 40},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		err = eng.Add(&Relation{
			ID: "flu", Source: "WHO",
			Columns: []string{"Region", "Season", "Strain"},
			Rows: [][]string{
				{"Europe", "2023", "influenza H1N1"},
				{"Asia", "2023", "influenza H3N2"},
			},
		})
		if err != nil {
			t.Fatalf("%v: Add: %v", m, err)
		}
		got, err := eng.Search("influenza strains", 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) == 0 || got[0].RelationID != "flu" {
			t.Fatalf("%v: added relation not retrievable: %v", m, got)
		}
	}
}

func TestEngineSearchDatasets(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{
		Method: ExS, Dim: 96, Seed: 6, Lexicon: vaccineLexicon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SearchDatasets(context.Background(), "COVID vaccines", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("datasets=%d: %+v", len(got), got)
	}
	// Best datasets for a vaccine query are the health sources.
	for _, d := range got {
		if d.Source == "USGS" {
			t.Fatalf("minerals source ranked top-2: %+v", got)
		}
		if len(d.Relations) == 0 {
			t.Fatalf("dataset %s has no member relations", d.Source)
		}
	}
	if got[0].Score < got[1].Score {
		t.Fatal("datasets not sorted by score")
	}
	if r, err := eng.SearchDatasets(context.Background(), "x", 0); err != nil || r != nil {
		t.Fatal("k=0 should return nothing")
	}
}

// TestEngineSaveLoad: an engine image stores each segment's vocabulary (a
// text and its vector once, the values as references into it), and an
// engine loaded from it ranks exactly as the one that saved it — relations
// and score bits — under every method, with a relation in the mutable
// segment that repeats base texts. Index builds are serial, so the rebuilt
// ANNS graph and CTS clustering are the saved engine's own.
func TestEngineSaveLoad(t *testing.T) {
	serial := core.BuildOptions{Workers: 1}
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(vaccineFederation(t), Config{
			Method: m, Dim: 96, Seed: 7, Lexicon: vaccineLexicon(),
			ANNS: ANNSOptions{Build: serial},
			CTS:  CTSOptions{MinClusterSize: 4, UMAPEpochs: 40, Build: serial},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		err = eng.Add(&Relation{ID: "repeat", Source: "WHO", Columns: []string{"Region", "Vaccine"},
			Rows: [][]string{{"Europe", "Vaxzevria"}, {"Asia", "Comirnaty"}}})
		if err != nil {
			t.Fatalf("%v: Add: %v", m, err)
		}
		var buf bytes.Buffer
		if err := eng.Save(&buf); err != nil {
			t.Fatalf("%v: Save: %v", m, err)
		}
		loaded, err := LoadEngine(&buf)
		if err != nil {
			t.Fatalf("%v: LoadEngine: %v", m, err)
		}
		if loaded.Method() != m {
			t.Fatalf("%v: method lost", m)
		}
		if a, b := eng.SegmentStats().Texts, loaded.SegmentStats().Texts; a != b || a == 0 {
			t.Fatalf("%v: %d texts saved, %d loaded", m, a, b)
		}
		for _, q := range []string{"COVID", "vaccine europe", "minerals", "Vaxzevria", "football stadium"} {
			a, err := eng.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.Search(q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("%v %q: %v saved, %v loaded", m, q, a, b)
			}
			for i := range a {
				if a[i].RelationID != b[i].RelationID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
					t.Fatalf("%v %q rank %d: %v saved, %v loaded", m, q, i, a[i], b[i])
				}
			}
		}
		// Loaded engines keep dataset grouping.
		ds, err := loaded.SearchDatasets(context.Background(), "COVID", 2)
		if err != nil || len(ds) == 0 {
			t.Fatalf("%v: SearchDatasets after load: %v %v", m, ds, err)
		}
	}
}

func TestEngineSaveRejectsCustomIDF(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{
		Method: ExS, Dim: 64, Seed: 8,
		IDF: func(string) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("custom-IDF engine must refuse to save")
	}
}

// tinyEngineImage is the Save image of a small engine over the vaccine
// federation.
func tinyEngineImage(t testing.TB, m Method) []byte {
	t.Helper()
	eng, err := Open(vaccineFederation(t), Config{Method: m, Dim: 16, Seed: 3, Lexicon: vaccineLexicon()})
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := eng.Save(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// encodeEngineImage gob-encodes p as Save would.
func encodeEngineImage(t testing.TB, p enginePersist) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(p); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// editEngineImage decodes img, applies edit and encodes the result again.
func editEngineImage(t testing.TB, img []byte, edit func(*enginePersist)) []byte {
	t.Helper()
	var p enginePersist
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	edit(&p)
	return encodeEngineImage(t, p)
}

// malformedEngineImages are images LoadEngine must refuse with an error:
// garbage, and envelopes naming a dimension the encoder cannot take (0
// selects the default; below embed.MinDim it would panic) or a method that
// does not exist.
func malformedEngineImages(t testing.TB) map[string][]byte {
	exs := tinyEngineImage(t, ExS)
	return map[string][]byte{
		"garbage":         []byte("not an engine"),
		"bare dim 3":      encodeEngineImage(t, enginePersist{Version: 2, Dim: 3}),
		"bare dim -1":     encodeEngineImage(t, enginePersist{Version: 2, Dim: -1}),
		"saved dim 3":     editEngineImage(t, exs, func(p *enginePersist) { p.Dim = 3 }),
		"saved dim 7":     editEngineImage(t, exs, func(p *enginePersist) { p.Dim = 7 }),
		"unknown method":  editEngineImage(t, exs, func(p *enginePersist) { p.Method = 3 }),
		"negative method": editEngineImage(t, exs, func(p *enginePersist) { p.Method = -1 }),
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	for name, img := range malformedEngineImages(t) {
		if _, err := LoadEngine(bytes.NewReader(img)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

// FuzzLoadEngine feeds LoadEngine arbitrary images: it must return an
// engine or an error, never panic, and an engine it returns must answer Do
// without panicking. The allocation is not bounded by the input's length:
// the gob envelope cannot promise that.
func FuzzLoadEngine(f *testing.F) {
	f.Add(tinyEngineImage(f, ExS))
	f.Add(tinyEngineImage(f, ANNS))
	for _, img := range malformedEngineImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := LoadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, req := range []Request{{Query: "vaccine europe", K: 3}, {Query: "COVID", K: 2, Feedback: true}} {
			eng.Do(context.Background(), req)
		}
	})
}

func TestEngineSearchSources(t *testing.T) {
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(vaccineFederation(t), Config{
			Method: m, Dim: 128, Seed: 9, Lexicon: vaccineLexicon(),
			CTS: CTSOptions{MinClusterSize: 4, UMAPEpochs: 40},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := matchesOf(eng.Do(context.Background(), Request{Query: "COVID", K: 5, Sources: []string{"WHO", "CDC"}}))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) == 0 {
			t.Fatalf("%v: filtered search empty", m)
		}
		for _, match := range got {
			if match.RelationID != "who" && match.RelationID != "cdc" {
				t.Fatalf("%v: filter leaked relation %s", m, match.RelationID)
			}
		}
		// Unknown source: nothing.
		none, err := matchesOf(eng.Do(context.Background(), Request{Query: "COVID", K: 5, Sources: []string{"NOPE"}}))
		if err != nil || len(none) != 0 {
			t.Fatalf("%v: unknown source gave %v, %v", m, none, err)
		}
	}
}

func TestEngineSearchWithFeedback(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{
		Method: ExS, Dim: 128, Seed: 12, Lexicon: vaccineLexicon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := matchesOf(eng.Do(context.Background(), Request{Query: "COVID", K: 2, Feedback: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("feedback search returned nothing")
	}
	for _, m := range got {
		if m.RelationID == "minerals" {
			t.Fatalf("feedback drifted to minerals: %v", got)
		}
	}
}

func TestEngineExplain(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{
		Method: ExS, Dim: 128, Seed: 14, Lexicon: vaccineLexicon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := eng.Explain("COVID", "ecdc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Top) == 0 || exp.Top[0].Value == "" {
		t.Fatalf("explanation=%+v", exp)
	}
}

func TestEngineConcurrentSearch(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{
		Method: ANNS, Dim: 96, Seed: 15, Lexicon: vaccineLexicon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []string{"COVID", "vaccine europe", "minerals", "football stadium"}
			for i := 0; i < 25; i++ {
				if _, err := eng.Search(queries[(w+i)%len(queries)], 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestLoadsParentCommitEngineImage loads an engine image saved by the
// commit before HNSW construction moved off the SDC table
// (testdata/engine_anns_pq.img: ANNS, dim 32, PQ K 64 trained at 128, 942
// values, serial build). LoadEngine rebuilds the index from the stored
// vectors, so the rebuilt graph — and with it every ranked list, score bits
// included — must match what that commit's own rebuild answered, recorded
// beside the image.
func TestLoadsParentCommitEngineImage(t *testing.T) {
	assertImageGolden(t, "testdata/engine_anns_pq")
}

// TestLoadsParentCommitEngineImageCTS loads a CTS engine image saved by the
// commit before CTS's lists became ranges of one row arena
// (testdata/engine_cts.img: dim 32, 912 values, serial build), with the
// per-cluster HNSW options CTSOptions has since dropped set to EfSearch
// 200, M 8 and EfConstruction 40. gob skips the fields CTSOptions no longer
// has, and every list of that build was under the graphs' scan bound, so
// the rebuilt index must rank exactly as that commit's rebuild did.
func TestLoadsParentCommitEngineImageCTS(t *testing.T) {
	raw, err := os.ReadFile("testdata/engine_cts.img")
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		Method Method
		CTS    struct{ EfSearch, M, EfConstruction int }
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.Method != CTS || old.CTS.EfSearch != 200 || old.CTS.M != 8 || old.CTS.EfConstruction != 40 {
		t.Fatalf("image carries %v with %+v, want CTS with the dropped options set", old.Method, old.CTS)
	}
	assertImageGolden(t, "testdata/engine_cts")
}

// assertImageGolden loads base+".img" and checks that every query recorded
// in base+".golden.json" ranks the same relations with the same score bits.
func assertImageGolden(t *testing.T, base string) {
	t.Helper()
	img, err := os.Open(base + ".img")
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	eng, err := LoadEngine(img)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(base + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Query   string `json:"query"`
		K       int    `json:"k"`
		Matches []struct {
			ID        string `json:"id"`
			ScoreBits uint32 `json:"score_bits"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("no golden queries")
	}
	for _, g := range golden {
		got, err := eng.Search(g.Query, g.K)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(g.Matches) {
			t.Fatalf("%q: %d matches, recorded %d", g.Query, len(got), len(g.Matches))
		}
		for i, m := range g.Matches {
			if got[i].RelationID != m.ID || math.Float32bits(got[i].Score) != m.ScoreBits {
				t.Fatalf("%q rank %d: %s %v, recorded %s %v", g.Query, i,
					got[i].RelationID, got[i].Score, m.ID, math.Float32frombits(m.ScoreBits))
			}
		}
	}
}

// TestLoadRefusesRemovedAggregator: images could once rank ExS by the max
// or top-m of value scores. Those aggregators are gone, and an image that
// names one must fail to load rather than come back ranking by the mean.
func TestLoadRefusesRemovedAggregator(t *testing.T) {
	img := editEngineImage(t, tinyEngineImage(t, ExS), func(p *enginePersist) { p.ExS.Aggregator = 1 })
	if _, err := LoadEngine(bytes.NewReader(img)); err == nil {
		t.Fatal("LoadEngine accepted an image with Aggregator 1")
	}
}
