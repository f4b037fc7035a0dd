package semdisco_test

import (
	"context"
	"fmt"
	"log"

	"semdisco"
)

// ExampleOpen builds a two-table federation and runs a semantic search
// whose query shares no literal vocabulary with the matching table.
func ExampleOpen() {
	fed := semdisco.NewFederation()
	if err := fed.Add(&semdisco.Relation{
		ID:      "vaccines",
		Source:  "who",
		Columns: []string{"Region", "Vaccine"},
		Rows: [][]string{
			{"Europe", "Vaxzevria"},
			{"Asia", "CoronaVac"},
		},
	}); err != nil {
		log.Fatal(err)
	}
	if err := fed.Add(&semdisco.Relation{
		ID:      "minerals",
		Source:  "usgs",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}},
	}); err != nil {
		log.Fatal(err)
	}

	lex := semdisco.NewLexicon()
	lex.AddSynonyms("COVID", "coronavirus", "Vaxzevria", "CoronaVac")

	eng, err := semdisco.Open(fed, semdisco.Config{
		Method:  semdisco.ExS,
		Dim:     256,
		Seed:    1,
		Lexicon: lex,
	})
	if err != nil {
		log.Fatal(err)
	}
	matches, err := eng.Search("COVID", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(matches[0].RelationID)
	// Output: vaccines
}

// ExampleEngine_SearchDatasets groups results by federation member.
func ExampleEngine_SearchDatasets() {
	fed := semdisco.NewFederation()
	for i, caption := range []string{"solar power plants", "wind turbine sites"} {
		if err := fed.Add(&semdisco.Relation{
			ID:      fmt.Sprintf("energy-%d", i),
			Source:  "energy-portal",
			Caption: caption,
			Columns: []string{"Name"},
			Rows:    [][]string{{"site-" + fmt.Sprint(i)}},
		}); err != nil {
			log.Fatal(err)
		}
	}
	if err := fed.Add(&semdisco.Relation{
		ID:      "trains",
		Source:  "transport-portal",
		Caption: "railway timetable",
		Columns: []string{"Line"},
		Rows:    [][]string{{"IC-540"}},
	}); err != nil {
		log.Fatal(err)
	}

	lex := semdisco.NewLexicon()
	lex.AddSynonyms("energy", "solar", "wind", "power", "turbine")

	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.ExS, Dim: 256, Seed: 2, Lexicon: lex,
	})
	if err != nil {
		log.Fatal(err)
	}
	datasets, err := eng.SearchDatasets(context.Background(), "renewable energy", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(datasets[0].Source)
	// Output: energy-portal
}
