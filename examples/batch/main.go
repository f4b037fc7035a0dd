// Batched execution: answer a block of queries in one fused pass with
// Engine.DoBatch — each distinct query text encoded once, the whole
// block scored together, per-item cost accounting. Run with:
//
//	go run ./examples/batch
package main

import (
	"context"
	"fmt"
	"log"

	"semdisco"
)

func main() {
	fed := semdisco.NewFederation()
	must(fed.Add(&semdisco.Relation{
		ID:      "vaccines",
		Source:  "WHO",
		Caption: "COVID-19 vaccination coverage",
		Columns: []string{"Region", "Vaccine", "Doses"},
		Rows: [][]string{
			{"Europe", "Vaxzevria", "1.2M"},
			{"Asia", "CoronaVac", "3.4M"},
		},
	}))
	must(fed.Add(&semdisco.Relation{
		ID:      "minerals",
		Source:  "USGS",
		Caption: "Mineral hardness",
		Columns: []string{"Mineral", "Hardness"},
		Rows:    [][]string{{"Quartz", "7"}, {"Talc", "1"}},
	}))

	eng, err := semdisco.Open(fed, semdisco.Config{
		Method: semdisco.ExS, Dim: 192, Seed: 1,
	})
	must(err)

	// One call scores every query of the block in a single blocked pass
	// over the corpus: each value vector is loaded once and reused across
	// all queries. Duplicate texts (the two "vaccination" items) are
	// encoded only once. Results are positionally aligned and identical to
	// per-query Do calls.
	results, err := eng.DoBatch(context.Background(), []semdisco.Query{
		{Text: "vaccination coverage", K: 2},
		{Text: "rock hardness scale", K: 1},
		{Text: "vaccination coverage", K: 2},
	})
	must(err)

	for i, res := range results {
		fmt.Printf("query %d (%d distance comps):\n", i, res.Cost.DistanceComps)
		for _, m := range res.Matches {
			fmt.Printf("  %-10s %.3f\n", m.RelationID, m.Score)
		}
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
