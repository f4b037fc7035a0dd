package semdisco

import (
	"context"
	"fmt"
	"testing"
)

// syntheticFederation builds rels relations of rows rows × 2 columns whose
// cell values are all unique, so the embedded value count is exactly
// rels·rows·2 and the ExS cost formula is checkable against NumValues.
func syntheticFederation(t testing.TB, rels, rows int) *Federation {
	t.Helper()
	fed := NewFederation()
	for r := 0; r < rels; r++ {
		rel := &Relation{
			ID:      fmt.Sprintf("rel%03d", r),
			Source:  fmt.Sprintf("src%d", r%4),
			Columns: []string{"A", "B"},
		}
		for i := 0; i < rows; i++ {
			rel.Rows = append(rel.Rows, []string{
				fmt.Sprintf("alpha%d beta%d", r*1000+i, r),
				fmt.Sprintf("gamma%d delta%d", r*1000+i, i),
			})
		}
		if err := fed.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// TestSearchCostExSFormula pins the exhaustive scan's cost to its exact
// formula: one distance computation per indexed value, every query.
func TestSearchCostExSFormula(t *testing.T) {
	fed := syntheticFederation(t, 40, 5)
	eng, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	matches, rep, err := eng.SearchCost(context.Background(), "alpha1002 beta1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	want := int64(eng.NumValues())
	if want == 0 {
		t.Fatal("no values indexed")
	}
	if rep.DistanceComps != want {
		t.Fatalf("ExS DistanceComps = %d, want exactly NumValues = %d", rep.DistanceComps, want)
	}
	if rep.ValuesScanned != want {
		t.Fatalf("ExS ValuesScanned = %d, want %d", rep.ValuesScanned, want)
	}
	if rep.BytesScanned != want*64*4 {
		t.Fatalf("ExS BytesScanned = %d, want %d", rep.BytesScanned, want*64*4)
	}
	if rep.CandidatesGenerated == 0 {
		t.Fatal("ExS reported no candidates generated")
	}
}

// TestSearchCostANNSBelowExS asserts the point of the index: on the same
// corpus, the HNSW walk touches strictly fewer vectors than the exhaustive
// scan, and the walk's work is visible (nonzero hops).
func TestSearchCostANNSBelowExS(t *testing.T) {
	fed := syntheticFederation(t, 40, 5)
	exs, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, exsRep, err := exs.SearchCost(context.Background(), "alpha1002 beta1", 5)
	if err != nil {
		t.Fatal(err)
	}
	anns, err := Open(fed, Config{Method: ANNS, Dim: 64, Seed: 1,
		ANNS: ANNSOptions{DisablePQ: true, EfSearch: 16, Fanout: 16}})
	if err != nil {
		t.Fatal(err)
	}
	_, annsRep, err := anns.SearchCost(context.Background(), "alpha1002 beta1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if annsRep.DistanceComps == 0 {
		t.Fatal("ANNS reported zero distance computations")
	}
	if annsRep.HNSWHops == 0 {
		t.Fatal("ANNS reported zero HNSW hops")
	}
	if annsRep.DistanceComps >= exsRep.DistanceComps {
		t.Fatalf("ANNS DistanceComps = %d, want < ExS's %d", annsRep.DistanceComps, exsRep.DistanceComps)
	}
}

// TestSearchCostCTSNonzero asserts CTS accounts its medoid scan and
// per-cluster index walks.
func TestSearchCostCTSNonzero(t *testing.T) {
	fed := vaccineFederation(t)
	eng, err := Open(fed, Config{Method: CTS, Dim: 128, Seed: 1,
		Lexicon: vaccineLexicon(),
		CTS:     CTSOptions{MinClusterSize: 4, UMAPEpochs: 60}})
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.SearchCost(context.Background(), "COVID", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DistanceComps == 0 {
		t.Fatal("CTS reported zero distance computations")
	}
}

// TestSearchRecordsWorkloadAndSLO asserts a plain engine search feeds the
// workload analyzer and the SLO engine — also with the diagnostics layer
// and the trace store switched off, which used to short-circuit past both.
func TestSearchRecordsWorkloadAndSLO(t *testing.T) {
	quiet := Config{Method: ExS, Dim: 64, Seed: 1}
	quiet.Diagnostics.Disable = true
	quiet.Tracing.Disable = true
	for name, cfg := range map[string]Config{"default": {Method: ExS, Dim: 64, Seed: 1}, "diagnostics+tracing off": quiet} {
		t.Run(name, func(t *testing.T) { searchRecordsWorkloadAndSLO(t, cfg) })
	}
}

func searchRecordsWorkloadAndSLO(t *testing.T, cfg Config) {
	eng, err := Open(vaccineFederation(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Search("covid vaccines", 2); err != nil {
			t.Fatal(err)
		}
	}
	ws := eng.Workload().Snapshot()
	if ws.Queries != 3 {
		t.Fatalf("workload saw %d queries, want 3", ws.Queries)
	}
	if len(ws.HeavyHitters) == 0 || ws.HeavyHitters[0].Query != "covid vaccines" {
		t.Fatalf("heavy hitters = %+v", ws.HeavyHitters)
	}
	if len(ws.Costliest) == 0 || ws.Costliest[0].Cost.DistanceComps == 0 {
		t.Fatalf("costliest board = %+v", ws.Costliest)
	}
	ss := eng.SLO().Snapshot()
	if len(ss.Objectives) != 2 {
		t.Fatalf("SLO objectives = %+v", ss.Objectives)
	}
	for _, o := range ss.Objectives {
		if o.State != "ok" {
			t.Fatalf("objective %s state %q, want ok", o.Objective, o.State)
		}
		if o.Windows[0].Total != 3 {
			t.Fatalf("objective %s 5m window total %d, want 3", o.Objective, o.Windows[0].Total)
		}
	}
	// Disabling works and is honest at the accessor level.
	eng.ConfigureSLO(SLOConfig{Disable: true})
	if eng.SLO() != nil {
		t.Fatal("ConfigureSLO(Disable) left a live SLO engine")
	}
}
