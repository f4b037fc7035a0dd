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

// TestSearchCostExSFormula pins the filter–verify scan's cost to its exact
// formula: one distance computation per live relation (its binary16
// centroid row, 2 bytes a dim) plus one per value of each relation the
// filter could not rule out (4 bytes a dim) — at
// least the k returned, and on this corpus of well-separated scores at
// most a couple more — the same count on every run, single or batched.
func TestSearchCostExSFormula(t *testing.T) {
	const rels, rows, k, dim = 40, 5, 5, 64
	fed := syntheticFederation(t, rels, rows)
	eng, err := Open(fed, Config{Method: ExS, Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	matches, rep, err := eng.SearchCost(context.Background(), "alpha1002 beta1", k)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != k {
		t.Fatalf("%d matches, want %d", len(matches), k)
	}
	perRel := int64(eng.NumValues() / rels)
	if perRel != 2*rows {
		t.Fatalf("%d values per relation, want %d", perRel, 2*rows)
	}
	verified := (rep.DistanceComps - rels) / perRel
	if rep.DistanceComps != rels+verified*perRel || verified < k || verified > k+2 {
		t.Fatalf("ExS DistanceComps = %d, want %d centroid rows + %d values for each of %d..%d verified relations",
			rep.DistanceComps, rels, perRel, k, k+2)
	}
	if rep.ValuesScanned != rep.DistanceComps {
		t.Fatalf("ExS ValuesScanned = %d, want %d", rep.ValuesScanned, rep.DistanceComps)
	}
	if want := rels*dim*2 + verified*perRel*dim*4; rep.BytesScanned != want {
		t.Fatalf("ExS BytesScanned = %d, want %d: %d binary16 centroid rows and %d float32 values of dim %d",
			rep.BytesScanned, want, rels, verified*perRel, dim)
	}
	if rep.CandidatesGenerated == 0 {
		t.Fatal("ExS reported no candidates generated")
	}
	_, again, err := eng.SearchCost(context.Background(), "alpha1002 beta1", k)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := eng.DoBatch(context.Background(), []Query{{Text: "alpha1002 beta1", K: k}})
	if err != nil {
		t.Fatal(err)
	}
	if again != rep || batch[0].Cost != rep {
		t.Fatalf("cost does not repeat: first %+v, second %+v, batched %+v", rep, again, batch[0].Cost)
	}
}

// TestSearchCostANNSBelowExS asserts the point of the index against the
// cost of Algorithm 1 as the paper states it — one comparison per indexed
// value — under both of vectordb's plans. Over 40 relations (400 values,
// every one a distinct text) a beam of 32 covers the collection — a query
// scans at most ¾ × 32 × 2M = 768 points — so ANNS scans: one distance
// computation per indexed point, no hops, never more than Algorithm 1.
// Over 80 relations (800 values) a beam of 16 covers at most 384 points,
// so the HNSW walk runs: it touches strictly fewer vectors than Algorithm
// 1, and its work is visible (nonzero hops). On both corpora the
// filter–verify scan that ExS runs for the paper's average touches fewer
// vectors than Algorithm 1 too.
func TestSearchCostANNSBelowExS(t *testing.T) {
	for _, tc := range []struct {
		name string
		rels int
		ef   int
		scan bool
	}{
		{"scan", 40, 32, true},
		{"walk", 80, 16, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed := syntheticFederation(t, tc.rels, 5)
			exs, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, exsRep, err := exs.SearchCost(context.Background(), "alpha1002 beta1", 5)
			if err != nil {
				t.Fatal(err)
			}
			anns, err := Open(fed, Config{Method: ANNS, Dim: 64, Seed: 1,
				ANNS: ANNSOptions{DisablePQ: true, EfSearch: tc.ef, Fanout: 16}})
			if err != nil {
				t.Fatal(err)
			}
			_, annsRep, err := anns.SearchCost(context.Background(), "alpha1002 beta1", 5)
			if err != nil {
				t.Fatal(err)
			}
			algorithm1 := int64(exs.NumValues())
			if exsRep.DistanceComps >= algorithm1 {
				t.Fatalf("ExS filter–verify DistanceComps = %d, want < Algorithm 1's %d", exsRep.DistanceComps, algorithm1)
			}
			if tc.scan {
				points := int64(anns.Stats().Segments.Texts)
				if annsRep.DistanceComps != points || annsRep.ValuesScanned != points || annsRep.HNSWHops != 0 {
					t.Fatalf("ANNS cost %+v, want a scan: %d distance computations and values scanned, one per indexed point, and no hops", annsRep, points)
				}
				if annsRep.DistanceComps > algorithm1 {
					t.Fatalf("ANNS DistanceComps = %d, want ≤ Algorithm 1's %d (one per value)", annsRep.DistanceComps, algorithm1)
				}
				return
			}
			if annsRep.DistanceComps == 0 || annsRep.HNSWHops == 0 || annsRep.ValuesScanned != 0 {
				t.Fatalf("ANNS cost %+v, want a walk: distance computations and hops, no values scanned", annsRep)
			}
			if annsRep.DistanceComps >= algorithm1 {
				t.Fatalf("ANNS DistanceComps = %d, want < Algorithm 1's %d (one per value)", annsRep.DistanceComps, algorithm1)
			}
		})
	}
}

// TestSearchCostCTSNonzero asserts CTS accounts its medoid scan and the
// scans of the cluster lists it probes.
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
// SLO engine and leaves its cost on the retained trace — and still feeds
// the SLO engine with the trace store switched off, which used to
// short-circuit past it.
func TestSearchRecordsWorkloadAndSLO(t *testing.T) {
	quiet := Config{Method: ExS, Dim: 64, Seed: 1}
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
	// The default head sample keeps the first query.
	if top := eng.Traces().Costliest(0); !cfg.Tracing.Disable &&
		(len(top) != 1 || top[0].Query != "covid vaccines" || top[0].Cost == 0) {
		t.Fatalf("costliest traces = %+v", top)
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
