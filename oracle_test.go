package semdisco

import (
	"testing"

	"semdisco/internal/oracle"
)

// oracleSearch is the reference ranking of the equivalence suites: the
// engine's live corpus, in insertion order, ranked by internal/oracle —
// value by value, no code shared with the search paths under test. An
// engine that has been written to is compacted first, so its one base
// segment is that corpus.
func oracleSearch(t testing.TB, eng *Engine, query string, k int) []Match {
	t.Helper()
	if st := eng.SegmentStats(); st.Segments != 1 || st.DeadRelations != 0 {
		if err := eng.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	_, emb := eng.store.Base()
	return oracle.Rank(emb, eng.Embed(query), k, eng.cfg.Threshold)
}
