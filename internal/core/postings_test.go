package core

import (
	"context"
	"slices"
	"testing"

	"semdisco/internal/segment"
	"semdisco/internal/table"
)

// TestPostingsFilterAndTombstones: an ANNS or CTS index point stands for
// every value with its text, so one point can carry an allowed and a
// rejected relation, or a live and a deleted one. Two texts are shared
// that way here, each the only value of one relation. Filtered answers
// must hold allowed relations only, the deleted relation must never
// surface, the relation reachable only through a shared point must still
// rank, and a batch must answer what single queries answer.
func TestPostingsFilterAndTombstones(t *testing.T) {
	fed := churnFederation(32)
	for _, r := range []*table.Relation{
		{ID: "shared-ok", Columns: []string{"A"}, Rows: [][]string{{"zebra quartz nebula"}}},
		{ID: "shared-blocked", Columns: []string{"A"}, Rows: [][]string{{"zebra quartz nebula"}, {"coral reef atlas"}}},
		{ID: "dead", Columns: []string{"A"}, Rows: [][]string{{"oboe tundra lantern"}, {"harbor crane ledger"}}},
		{ID: "alive", Columns: []string{"A"}, Rows: [][]string{{"oboe tundra lantern"}}},
	} {
		r.Source = "src"
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	emb := EmbedFederation(fed, newTestEncoder(64))
	emb.Tombs = segment.NewTombstones()
	// Serial builds: the clustering, and so the check below, is a function
	// of the fixture alone.
	serial := BuildOptions{Workers: 1}
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true, Build: serial})
	if err != nil {
		t.Fatal(err)
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 60, Build: serial})
	if err != nil {
		t.Fatal(err)
	}
	dead, _ := emb.RelIndex("dead")
	emb.Tombs.Mark(dead)

	// CTS shares a point only within a cluster: the fixture must put each
	// pair of equal texts in one, or it tests nothing beyond ANNS.
	clusterOf := func(id, text string) int {
		rel, _ := emb.RelIndex(id)
		for _, vi := range emb.PerRel[rel] {
			if emb.texts[emb.Values[vi].Text] == text {
				return cts.ClusterOf(int(vi))
			}
		}
		t.Fatalf("%s holds no %q", id, text)
		return -1
	}
	for _, pair := range [][3]string{{"shared-ok", "shared-blocked", "zebra quartz nebula"}, {"alive", "dead", "oboe tundra lantern"}} {
		if ca, cb := clusterOf(pair[0], pair[2]), clusterOf(pair[1], pair[2]); ca != cb {
			t.Fatalf("%s and %s share %q but sit in clusters %d and %d", pair[0], pair[1], pair[2], ca, cb)
		}
	}

	enc := emb.Enc
	qs := [][]float32{enc.Encode("zebra quartz nebula"), enc.Encode("oboe tundra lantern"),
		enc.Encode("marine biology coral"), enc.Encode("glacier ice")}
	ks := []int{5, 5, 8, 3}
	notBlocked := func(id string) bool { return id != "shared-blocked" }
	for _, s := range []EncodedSearcher{NewExS(emb, ExSOptions{}), anns, cts} {
		for name, allow := range map[string]func(string) bool{
			"unfiltered":  nil,
			"all":         func(string) bool { return true },
			"not blocked": notBlocked,
		} {
			label := s.Name() + "/" + name
			single := make([][]Match, len(qs))
			for i, q := range qs {
				ms, err := s.SearchFiltered(context.Background(), q, ks[i], allow)
				if err != nil {
					t.Fatal(err)
				}
				single[i] = ms
				ids := make([]string, len(ms))
				for j, m := range ms {
					ids[j] = m.RelationID
					if allow != nil && !allow(m.RelationID) {
						t.Errorf("%s query %d: %s ranked though the allow-list rejects it", label, i, m.RelationID)
					}
				}
				if slices.Contains(ids, "dead") {
					t.Errorf("%s query %d: the deleted relation ranked: %v", label, i, ids)
				}
				if i == 1 && !slices.Contains(ids, "alive") {
					t.Errorf("%s: alive, reachable only through a text it shares with a deleted relation, is missing: %v", label, ids)
				}
				if i == 0 && !slices.Contains(ids, "shared-ok") {
					t.Errorf("%s: shared-ok, reachable only through a shared text, is missing: %v", label, ids)
				}
			}
			batch, err := s.searchBlock(context.Background(), searchObs{}, qs, ks, allow, newCosts(len(qs)))
			if err != nil {
				t.Fatal(err)
			}
			assertRowsIdentical(t, label, single, batch)
		}
	}
}
