package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/segment"
	"semdisco/internal/table"
)

// goldenRelation is relation i of the filtered golden corpus: its churn
// topic plus two words of its own, so relations sharing a topic still score
// apart.
func goldenRelation(i int) (id, topic string) {
	return fmt.Sprintf("rel-%02d", i), churnTopics[i%len(churnTopics)] + " " + word(i, 1) + " " + word(i, 4)
}

// filteredGoldenStore builds a segment store of 48 relations with a serial
// build. One segment: all of them in the base index. Churned: 32 in the
// base, 8 sealed into a second indexed segment, 3 deletes across both, and
// 8 more in the mutable segment.
func filteredGoldenStore(t *testing.T, method string, build SegmentBuilder, model *embed.Model, churned bool) *SegmentStore {
	t.Helper()
	base := 48
	if churned {
		base = 32
	}
	fed := table.NewFederation()
	for i := 0; i < base; i++ {
		fed.Add(newRelation(goldenRelation(i)))
	}
	st := newStore(t, method, build, fed, model, SegmentStoreOptions{
		Policy: segment.Policy{MaxMutableValues: 1 << 20, MaxSegments: 100, MaxDeadFraction: -1},
	})
	if !churned {
		return st
	}
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := st.Add(newRelation(goldenRelation(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(32, 40)
	st.freeze()
	if err := st.upgradeFrozen(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"rel-03", "rel-10", "rel-33"} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	add(40, 48)
	if s := st.Stats(); s.SealedSegments != 2 || s.MutableRelations != 8 || s.DeadRelations != 3 {
		t.Fatalf("store not churned as intended: %+v", s)
	}
	return st
}

// TestFilteredRankingsGolden pins ANNS's and CTS's filtered rankings to
// constants: 20 seeded SearchFiltered queries, with allow-lists from
// everything to a few relations, hashed as relation IDs plus score bits.
// The indexes are built serially, so the constants are a function of the
// code alone; a change that is meant to keep rankings bit-identical must
// reproduce them.
func TestFilteredRankingsGolden(t *testing.T) {
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	serial := BuildOptions{Workers: 1}
	builders := map[string]SegmentBuilder{
		"ANNS": func(e *Embedded) (EncodedSearcher, error) {
			return NewANNS(e, ANNSOptions{Seed: 3, PQTrainSize: 64, PQK: 16, Build: serial})
		},
		"CTS": func(e *Embedded) (EncodedSearcher, error) {
			return NewCTS(e, CTSOptions{Seed: 3, MinClusterSize: 4, UMAPEpochs: 30, Build: serial})
		},
	}
	want := map[string]struct {
		hash    uint64
		matches int
	}{
		"ANNS/one segment": {0xe2e93ffd0bc7f813, 115},
		"ANNS/churned":     {0x992eefdf080787f0, 114},
		"CTS/one segment":  {0x908cf24355829970, 115},
		"CTS/churned":      {0x8a1c8dfd44d6a990, 114},
	}

	rng := rand.New(rand.NewSource(20251016))
	type query struct {
		q     []float32
		k     int
		allow func(string) bool
	}
	queries := make([]query, 20)
	for i := range queries {
		text := churnTopics[rng.Intn(len(churnTopics))] + " " + word(rng.Intn(48), 1)
		mod, keep := 1+rng.Intn(5), rng.Intn(3)
		var allow func(string) bool
		if i%5 != 0 {
			allow = func(id string) bool {
				h := fnv.New32a()
				h.Write([]byte(id))
				return int(h.Sum32())%mod <= keep
			}
		}
		queries[i] = query{q: model.Encode(text), k: 2 + rng.Intn(9), allow: allow}
	}

	for _, method := range []string{"ANNS", "CTS"} {
		for _, churned := range []bool{false, true} {
			label := method + "/one segment"
			if churned {
				label = method + "/churned"
			}
			t.Run(label, func(t *testing.T) {
				st := filteredGoldenStore(t, method, builders[method], model, churned)
				h := fnv.New64a()
				var b [4]byte
				matches := 0
				for _, qu := range queries {
					ms, err := st.SearchFiltered(context.Background(), qu.q, qu.k, qu.allow)
					if err != nil {
						t.Fatal(err)
					}
					for _, m := range ms {
						if qu.allow != nil && !qu.allow(m.RelationID) {
							t.Fatalf("%s ranked though the allow-list rejects it", m.RelationID)
						}
						h.Write([]byte(m.RelationID))
						binary.LittleEndian.PutUint32(b[:], math.Float32bits(m.Score))
						h.Write(b[:])
					}
					h.Write([]byte{0xff})
					matches += len(ms)
				}
				w := want[label]
				if got := h.Sum64(); got != w.hash || matches != w.matches {
					t.Errorf("rankings hash %#x over %d matches, want %#x over %d", got, matches, w.hash, w.matches)
				}
			})
		}
	}
}
