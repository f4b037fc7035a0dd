package hnsw

import (
	"testing"

	"semdisco/internal/vec"
)

// TestSearchScratchIdentical pins the scratch contract: a reused Scratch
// changes where the walk's working state lives, never which nodes it
// evaluates — results and stats must match a walk on a pooled Scratch
// exactly, across many consecutive reuses of the same Scratch.
func TestSearchScratchIdentical(t *testing.T) {
	s := newStore(Config{M: 8, EfConstruction: 64, Seed: 1})
	for _, v := range randVecs(400, 16, 3) {
		s.add(v)
	}
	queries := randVecs(50, 16, 9)
	sc := new(Scratch)
	for qi, q := range queries {
		qd := func(id int32) float32 { return vec.L2Sq(q, s.vecs[id]) }
		want, wantDone, wantStats := s.ix.SearchScratch(nil, qd, 10, 64, nil, nil)
		got, gotDone, gotStats := s.ix.SearchScratch(sc, qd, 10, 64, nil, nil)
		if wantDone != gotDone || wantStats != gotStats {
			t.Fatalf("query %d: stats diverge: %v/%+v vs %v/%+v", qi, wantDone, wantStats, gotDone, gotStats)
		}
		if len(want) != len(got) {
			t.Fatalf("query %d: %d vs %d neighbors", qi, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %d neighbor %d: %+v vs %+v", qi, i, want[i], got[i])
			}
		}
	}
}

// TestSearchScratchFiltered checks the scratch path under a filter, where
// the visited bookkeeping and the result set diverge most.
func TestSearchScratchFiltered(t *testing.T) {
	s := newStore(Config{M: 8, EfConstruction: 64, Seed: 1})
	for _, v := range randVecs(300, 12, 5) {
		s.add(v)
	}
	filter := func(id int32) bool { return id%3 == 0 }
	sc := new(Scratch)
	for _, q := range randVecs(20, 12, 11) {
		qd := func(id int32) float32 { return vec.L2Sq(q, s.vecs[id]) }
		want, _, _ := s.ix.SearchScratch(nil, qd, 8, 48, filter, nil)
		got, _, _ := s.ix.SearchScratch(sc, qd, 8, 48, filter, nil)
		if len(want) != len(got) {
			t.Fatalf("%d vs %d neighbors", len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("neighbor %d: %+v vs %+v", i, want[i], got[i])
			}
			if got[i].ID%3 != 0 {
				t.Fatalf("filter violated: id %d", got[i].ID)
			}
		}
	}
}

// TestScratchGenerationWraparound forces the generation counter over its
// wrap point and checks the visited array is cleared rather than reporting
// stale visits.
func TestScratchGenerationWraparound(t *testing.T) {
	s := newStore(Config{M: 4, EfConstruction: 32, Seed: 1})
	for _, v := range randVecs(50, 8, 7) {
		s.add(v)
	}
	sc := new(Scratch)
	q := randVecs(1, 8, 13)[0]
	qd := func(id int32) float32 { return vec.L2Sq(q, s.vecs[id]) }
	want, _, _ := s.ix.SearchScratch(nil, qd, 5, 16, nil, nil)
	sc.gen = ^uint32(0) - 1 // next two begin() calls straddle the wrap
	for rep := 0; rep < 3; rep++ {
		got, _, _ := s.ix.SearchScratch(sc, qd, 5, 16, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("rep %d: %d vs %d neighbors", rep, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("rep %d neighbor %d: %+v vs %+v", rep, i, want[i], got[i])
			}
		}
	}
}
