// Persistence and growth: build an engine, save it to disk, restore it in
// a "new process", add a freshly-arrived relation incrementally, and run a
// dataset-level search (the §3 multi-relation generalization). Run with:
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"semdisco"
)

func main() {
	fed := semdisco.NewFederation()
	add := func(r *semdisco.Relation) {
		if err := fed.Add(r); err != nil {
			log.Fatal(err)
		}
	}
	add(&semdisco.Relation{
		ID: "energy-solar", Source: "energy-portal",
		Caption: "solar capacity by country",
		Columns: []string{"Country", "Year", "Capacity"},
		Rows: [][]string{
			{"Germany", "2022", "66000"},
			{"Spain", "2022", "20500"},
		},
	})
	add(&semdisco.Relation{
		ID: "energy-wind", Source: "energy-portal",
		Caption: "wind farms offshore",
		Columns: []string{"Site", "Country", "Turbines"},
		Rows: [][]string{
			{"Hornsea", "UK", "174"},
			{"Borssele", "NL", "94"},
		},
	})
	add(&semdisco.Relation{
		ID: "transport-rail", Source: "transport-portal",
		Caption: "railway passengers",
		Columns: []string{"Country", "Year", "Passengers"},
		Rows: [][]string{
			{"France", "2022", "1200000"},
			{"Italy", "2022", "900000"},
		},
	})

	lex := semdisco.NewLexicon()
	lex.AddSynonyms("solar", "photovoltaic", "renewable", "wind", "turbine")
	lex.AddSynonyms("railway", "train", "rail")

	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.ANNS, Dim: 256, Seed: 11, Lexicon: lex,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Save to disk.
	dir, err := os.MkdirTemp("", "semdisco-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "engine.bin")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	info, _ := os.Stat(path)
	fmt.Printf("saved engine (%d bytes) to %s\n", info.Size(), path)

	// Restore — as a new process would.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := semdisco.LoadEngine(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %v engine with %d values\n", restored.Method(), restored.NumValues())

	// A new table arrives; index it without rebuilding.
	err = restored.Add(&semdisco.Relation{
		ID: "energy-hydro", Source: "energy-portal",
		Caption: "hydroelectric dams renewable output",
		Columns: []string{"Dam", "Country", "Output"},
		Rows: [][]string{
			{"Itaipu", "Brazil", "14000"},
			{"Grand Coulee", "USA", "6800"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	matches, err := restored.Search("renewable energy output", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrelation search: renewable energy output")
	for _, m := range matches {
		fmt.Printf("  %-16s %.3f\n", m.RelationID, m.Score)
	}

	datasets, err := restored.SearchDatasets(context.Background(), "renewable energy output", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndataset search (grouped by source):")
	for _, d := range datasets {
		fmt.Printf("  %-18s %.3f (%d matching relations)\n", d.Source, d.Score, len(d.Relations))
	}
}
