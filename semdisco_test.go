package semdisco

import (
	"fmt"
	"strings"
	"testing"
)

func vaccineFederation(t testing.TB) *Federation {
	t.Helper()
	fed := NewFederation()
	add := func(r *Relation) {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	add(&Relation{
		ID: "who", Source: "WHO",
		Columns: []string{"Region", "Date", "Vaccine", "Dosage"},
		Rows: [][]string{
			{"North America", "2021-01-01", "Comirnaty", "First"},
			{"Europe", "2021-02-01", "Vaxzevria", "Second"},
		},
	})
	add(&Relation{
		ID: "ecdc", Source: "ECDC",
		Columns: []string{"Country", "Date", "Trade Name", "Disease"},
		Rows: [][]string{
			{"Germany", "2021-01-01", "Pfizer-BioNTech", "COVID-19"},
			{"France", "2021-02-01", "AstraZeneca", "COVID-19"},
		},
	})
	add(&Relation{
		ID: "minerals", Source: "USGS",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}, {"Talc", "1"}},
	})
	return fed
}

func vaccineLexicon() *Lexicon {
	lex := NewLexicon()
	covid := lex.AddSynonyms("COVID", "COVID-19", "coronavirus")
	for _, term := range []string{"Comirnaty", "Vaxzevria", "Pfizer-BioNTech", "AstraZeneca"} {
		lex.Add(covid, term)
	}
	return lex
}

func TestOpenAndSearchAllMethods(t *testing.T) {
	fed := vaccineFederation(t)
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(fed, Config{
			Method:  m,
			Dim:     128,
			Seed:    1,
			Lexicon: vaccineLexicon(),
			CTS:     CTSOptions{MinClusterSize: 4, UMAPEpochs: 60},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if eng.Method() != m {
			t.Fatalf("Method()=%v want %v", eng.Method(), m)
		}
		got, err := eng.Search("COVID", 2)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != 2 {
			t.Fatalf("%v: got %d matches: %v", m, len(got), got)
		}
		for _, match := range got {
			if match.RelationID == "minerals" {
				t.Fatalf("%v: minerals ranked above a vaccine table: %v", m, got)
			}
		}
	}
}

func TestOpenEmptyFederation(t *testing.T) {
	if _, err := Open(NewFederation(), Config{}); err == nil {
		t.Fatal("empty federation must error")
	}
	if _, err := Open(nil, Config{}); err == nil {
		t.Fatal("nil federation must error")
	}
}

func TestOpenUnknownMethod(t *testing.T) {
	if _, err := Open(vaccineFederation(t), Config{Method: Method(99), Dim: 32}); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestMethodString(t *testing.T) {
	if CTS.String() != "CTS" || ANNS.String() != "ANNS" || ExS.String() != "ExS" {
		t.Fatal("Method.String broken")
	}
	if !strings.Contains(Method(9).String(), "9") {
		t.Fatal("unknown Method.String")
	}
}

func TestEngineEmbedAndNumValues(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{Method: ExS, Dim: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumValues() == 0 {
		t.Fatal("no values indexed")
	}
	v := eng.Embed("covid vaccine")
	if len(v) != 64 {
		t.Fatalf("Embed dim=%d", len(v))
	}
}

func TestThresholdPropagates(t *testing.T) {
	eng, err := Open(vaccineFederation(t), Config{Method: ExS, Dim: 64, Seed: 3, Threshold: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Search("COVID", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("threshold ignored: %v", got)
	}
}

func TestReadCSVReexport(t *testing.T) {
	r, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), "x", "s")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 1 {
		t.Fatalf("rows=%d", r.NumRows())
	}
}

// synthFederation builds n deterministic relations with overlapping
// vocabulary, enough for ring partitions to stay non-empty and score ties
// to occur.
func synthFederation(t testing.TB, n int) *Federation {
	t.Helper()
	fed := NewFederation()
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(i, j int) string {
		return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
	}
	for i := 0; i < n; i++ {
		r := &Relation{
			ID:      fmt.Sprintf("rel-%03d", i),
			Source:  fmt.Sprintf("src-%d", i%3),
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}
