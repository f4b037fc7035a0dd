package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/segment"
	"semdisco/internal/table"
)

// churnTopics gives every relation a distinct, repeatable topic.
var churnTopics = []string{
	"solar panels photovoltaic energy", "marine biology coral fish",
	"steam locomotive railway trains", "volcanic basalt magma geology",
	"baroque violin concerto music", "quantum entanglement photons physics",
	"sourdough fermentation baking bread", "glacier moraine ice erosion",
	"honeybee pollination hive nectar", "suspension bridge cable engineering",
	"rainforest canopy epiphyte ecology", "ceramic kiln glaze pottery",
	"cardiac ventricle artery anatomy", "sailing regatta spinnaker wind",
	"copper smelting ore metallurgy", "alpine meadow wildflower botany",
}

func churnFederation(n int) *table.Federation {
	fed := table.NewFederation()
	for i := 0; i < n; i++ {
		fed.Add(newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i%len(churnTopics)]))
	}
	return fed
}

var churnQueries = []string{
	"solar energy", "coral fish", "railway trains", "magma geology",
	"violin music", "quantum physics", "baking bread", "ice erosion",
}

// freshEmbedded embeds the given relations in the given order from scratch
// — the corpus a churned segment store must rank like, through the oracle.
func freshEmbedded(rels map[string]*table.Relation, order []string, model *embed.Model) *Embedded {
	fed := table.NewFederation()
	for _, id := range order {
		fed.Add(rels[id])
	}
	return EmbedFederation(fed, model)
}

func assertSameResults(t *testing.T, label string, st *SegmentStore, fresh *Embedded, k int) {
	t.Helper()
	for _, q := range churnQueries {
		got, err := st.Search(q, k)
		if err != nil {
			t.Fatalf("%s: store search %q: %v", label, q, err)
		}
		want := oracleRank(fresh, fresh.Enc.Encode(q), k, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %q diverged from the oracle over a fresh build:\n got: %v\nwant: %v", label, q, got, want)
		}
	}
}

// TestSegmentStoreSealAndUpgrade: a tiny MaxMutableValues forces the
// mutable segment through freeze → frozen (ExS) → sealed (built index),
// with everything searchable at each stage.
func TestSegmentStoreSealAndUpgrade(t *testing.T) {
	fed := churnFederation(8)
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	build := storeBuilders()["ExS"]
	st := newStore(t, "ExS", build, fed, model, SegmentStoreOptions{
		Policy: segment.Policy{MaxMutableValues: 4, MaxSegments: 100, MaxDeadFraction: -1},
	})

	for i := 8; i < 16; i++ {
		if err := st.Add(newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i])); err != nil {
			t.Fatal(err)
		}
		if err := st.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Stats()
	if s.Seals == 0 {
		t.Fatalf("no seals despite MaxMutableValues=4: %+v", s)
	}
	if s.SealedSegments < 2 {
		t.Fatalf("frozen segments not upgraded: %+v", s)
	}
	if s.LiveRelations != 16 {
		t.Fatalf("live relations = %d, want 16: %+v", s.LiveRelations, s)
	}
	// Every relation — base, sealed, or mutable — must still answer.
	for i := 0; i < 16; i++ {
		got, err := st.Search(churnTopics[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("rel-%02d", i)
		if len(got) == 0 || got[0].RelationID != want {
			t.Fatalf("relation %s unfindable after seals: %v", want, got)
		}
	}
}

// TestSegmentStoreChurnEquivalence is the acceptance pin: a store churned
// through deletes, updates and adds — before AND after a completed
// compaction — returns ExS results bit-identical to an engine freshly
// built over the surviving corpus in insertion order.
func TestSegmentStoreChurnEquivalence(t *testing.T) {
	const n = 16
	fed := churnFederation(n)
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	build := storeBuilders()["ExS"]
	st := newStore(t, "ExS", build, fed, model, SegmentStoreOptions{
		Policy: segment.Policy{MaxMutableValues: 6, MaxSegments: 100, MaxDeadFraction: -1},
	})

	rels := make(map[string]*table.Relation)
	for i := 0; i < n; i++ {
		rels[fmt.Sprintf("rel-%02d", i)] = newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i%len(churnTopics)])
	}

	// Churn: delete 4/16 (25%), update 2, add 4 — with seals interleaved.
	for _, id := range []string{"rel-01", "rel-05", "rel-09", "rel-13"} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(rels, id)
	}
	for _, id := range []string{"rel-02", "rel-10"} {
		r := newRelation(id, "updated telescope observatory astronomy")
		if err := st.Update(r); err != nil {
			t.Fatal(err)
		}
		rels[id] = newRelation(id, "updated telescope observatory astronomy")
	}
	if err := st.Maintain(); err != nil { // seals the mutable segment mid-churn
		t.Fatal(err)
	}
	for i := n; i < n+4; i++ {
		id := fmt.Sprintf("rel-%02d", i)
		r := newRelation(id, churnTopics[i%len(churnTopics)]+" fresh")
		if err := st.Add(r); err != nil {
			t.Fatal(err)
		}
		rels[id] = newRelation(id, churnTopics[i%len(churnTopics)]+" fresh")
	}

	// Multi-segment, tombstoned, pre-compaction: must already rank exactly
	// like a monolith over the survivors.
	fresh := freshEmbedded(rels, st.LiveRelations(), model)
	assertSameResults(t, "pre-compaction", st, fresh, 5)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Compactions < 1 {
		t.Fatalf("no compaction recorded: %+v", s)
	}
	if s.Segments != 1 || s.DeadRelations != 0 || s.DeadValues != 0 {
		t.Fatalf("compaction left garbage: %+v", s)
	}
	if s.LiveRelations != len(rels) {
		t.Fatalf("live relations = %d, want %d", s.LiveRelations, len(rels))
	}
	assertSameResults(t, "post-compaction", st, fresh, 5)

	// Deleted relations never resurface, even at large k.
	for _, q := range churnQueries {
		got, err := st.Search(q, len(rels)+8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range got {
			if _, live := rels[m.RelationID]; !live {
				t.Fatalf("deleted relation %s resurfaced for %q", m.RelationID, q)
			}
		}
	}
}

// TestSegmentStoreSearchDuringCompaction: with no mutations in flight, a
// seal → merge → swap cycle must be invisible to readers — every search
// issued while the compaction runs returns bit-identical results. Run
// under -race this also exercises the RCU snapshot discipline.
func TestSegmentStoreSearchDuringCompaction(t *testing.T) {
	const n = 16
	fed := churnFederation(n)
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	build := storeBuilders()["ExS"]
	st := newStore(t, "ExS", build, fed, model, SegmentStoreOptions{
		Policy: segment.Policy{MaxMutableValues: 1, MaxSegments: 100, MaxDeadFraction: -1},
	})

	// Leave the store mid-shape: extra segments plus tombstones.
	for i := n; i < n+4; i++ {
		if err := st.Add(newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i%len(churnTopics)])); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"rel-03", "rel-07", "rel-11", "rel-15"} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	expected := make(map[string][]Match)
	for _, q := range churnQueries {
		m, err := st.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = m
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := churnQueries[(w+i)%len(churnQueries)]
				got, err := st.Search(q, 5)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, expected[q]) {
					errs <- fmt.Errorf("query %q changed during compaction:\n got: %v\nwant: %v", q, got, expected[q])
					return
				}
			}
		}(w)
	}

	// Drive the full cycle — freeze the mutable remnants, build indexes,
	// merge and swap — while the readers hammer.
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st.Stats().Compactions < 1 {
		t.Fatal("compaction did not run")
	}
	for _, q := range churnQueries {
		got, err := st.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, expected[q]) {
			t.Fatalf("query %q changed after compaction:\n got: %v\nwant: %v", q, got, expected[q])
		}
	}
}

// TestSegmentStoreConcurrentChurn races writers, readers and maintenance
// against each other; afterwards the store must be internally consistent
// and equivalent to a fresh build. Primarily a -race exercise.
func TestSegmentStoreConcurrentChurn(t *testing.T) {
	const n = 12
	fed := churnFederation(n)
	model := embed.New(embed.Config{Dim: 32, Seed: 1})
	build := storeBuilders()["ExS"]
	st := newStore(t, "ExS", build, fed, model, SegmentStoreOptions{
		Policy: segment.Policy{MaxMutableValues: 8, MaxSegments: 2},
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := st.Search("solar energy", 3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // maintenance
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Maintain(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Writer churns synchronously so the final corpus is deterministic.
	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("churn-%d-%d", round, i)
			if err := st.Add(newRelation(id, churnTopics[(round+i)%len(churnTopics)])); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 2; i++ {
			id := fmt.Sprintf("churn-%d-%d", round, i)
			if err := st.Delete(id); err != nil {
				t.Error(err)
			}
		}
		if err := st.Update(newRelation(fmt.Sprintf("churn-%d-2", round), "rewritten archive manuscript")); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	live := st.LiveRelations()
	if len(live) != st.NumLiveRelations() {
		t.Fatalf("LiveRelations len %d != counter %d", len(live), st.NumLiveRelations())
	}
	rels := make(map[string]*table.Relation, len(live))
	for _, id := range live {
		var r *table.Relation
		switch {
		case strings.HasPrefix(id, "rel-"):
			var i int
			fmt.Sscanf(id, "rel-%02d", &i)
			r = newRelation(id, churnTopics[i%len(churnTopics)])
		case id[len(id)-1] == '2':
			r = newRelation(id, "rewritten archive manuscript")
		default:
			var round, i int
			fmt.Sscanf(id, "churn-%d-%d", &round, &i)
			r = newRelation(id, churnTopics[(round+i)%len(churnTopics)])
		}
		rels[id] = r
	}
	fresh := freshEmbedded(rels, live, model)
	assertSameResults(t, "post-churn", st, fresh, 5)
}

// TestSegmentStorePersistRestore: a churned multi-segment store survives a
// Persist/Restore roundtrip with identical results, counters and pending
// tombstones.
func TestSegmentStorePersistRestore(t *testing.T) {
	const n = 16
	fed := churnFederation(n)
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	build := storeBuilders()["ExS"]
	opt := SegmentStoreOptions{
		Build:  build,
		Method: "ExS",
		Policy: segment.Policy{MaxMutableValues: 6, MaxSegments: 100, MaxDeadFraction: -1},
	}
	st := newStore(t, "ExS", build, fed, model, opt)

	for _, id := range []string{"rel-01", "rel-05"} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+8; i++ {
		if err := st.Add(newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i%len(churnTopics)])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Maintain(); err != nil { // forces a seal: multi-segment image
		t.Fatal(err)
	}
	if err := st.Delete("rel-17"); err != nil { // tombstone inside a sealed segment
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := st.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := RestoreSegmentStore(bytes.NewReader(buf.Bytes()), model, nil, opt)
	if err != nil {
		t.Fatal(err)
	}

	a, b := st.Stats(), re.Stats()
	if a.Segments != b.Segments || a.LiveRelations != b.LiveRelations ||
		a.DeadRelations != b.DeadRelations || a.LiveValues != b.LiveValues {
		t.Fatalf("stats diverged:\n before: %+v\n after:  %+v", a, b)
	}
	if !reflect.DeepEqual(st.LiveRelations(), re.LiveRelations()) {
		t.Fatal("live-relation order lost in roundtrip")
	}
	for _, q := range churnQueries {
		x, err := st.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		y, err := re.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("query %q diverged after restore:\n got: %v\nwant: %v", q, y, x)
		}
	}
	// The restored store must still accept mutations and compact.
	if err := re.Update(newRelation("rel-00", "replacement lighthouse beacon")); err != nil {
		t.Fatal(err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	got, err := re.Search("lighthouse beacon", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].RelationID != "rel-00" {
		t.Fatalf("post-restore update unfindable: %v", got)
	}

	if _, err := RestoreSegmentStore(bytes.NewReader([]byte("junk")), model, nil, opt); err == nil {
		t.Fatal("garbage must not restore")
	}
}

// TestSegmentStoreCompactToEmpty: deleting the whole corpus and compacting
// must fall back to an exhaustive-scan base, not crash in the index build.
func TestSegmentStoreCompactToEmpty(t *testing.T) {
	fed := churnFederation(4)
	model := embed.New(embed.Config{Dim: 32, Seed: 1})
	for method, build := range storeBuilders() {
		st := newStore(t, method, build, fed, model)
		for i := 0; i < 4; i++ {
			if err := st.Delete(fmt.Sprintf("rel-%02d", i)); err != nil {
				t.Fatalf("%s: %v", method, err)
			}
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("%s: compact to empty: %v", method, err)
		}
		got, err := st.Search("solar energy", 3)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(got) != 0 {
			t.Fatalf("%s: empty store answered: %v", method, got)
		}
		// And the store must come back to life.
		if err := st.Add(newRelation("reborn", "solar panels energy")); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, err = st.Search("solar energy", 3)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(got) != 1 || got[0].RelationID != "reborn" {
			t.Fatalf("%s: refilled store: %v", method, got)
		}
	}
}

// TestSegmentStoreDriftTrigger: churning a CTS store past the medoid-drift
// bound must make compactTrigger fire with the drift trigger and Maintain
// re-cluster, restoring drift to its baseline band.
//
// The trigger is a signed growth over the build-time baseline, and which
// deletes make the mean drift grow depends on the layout the build happened
// to produce. So the deletes are chosen from the built clustering: relations
// are tombstoned one at a time, from each starting relation in turn, until
// the store's own health report shows the mean over its baseline.
func TestSegmentStoreDriftTrigger(t *testing.T) {
	const bound = 1e-9 // hair-trigger; other triggers disabled
	build := func(e *Embedded) (EncodedSearcher, error) {
		return NewCTS(e, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 30, Build: BuildOptions{Workers: 1}})
	}
	newStore := func() *SegmentStore {
		fed, model := covidFederation(t)
		emb := EmbedFederation(fed, model)
		base, err := build(emb)
		if err != nil {
			t.Fatal(err)
		}
		return NewSegmentStore(emb, base, SegmentStoreOptions{
			Build:  build,
			Method: "CTS",
			Policy: segment.Policy{
				MaxMutableValues: 1 << 20, MaxSegments: 100,
				MaxDeadFraction: -1, MaxMedoidDrift: bound, MaxPQDistortion: -1,
			},
		})
	}
	// drifted tombstones ids[start], ids[start+1], ... (one relation always
	// stays live) and reports whether the mean medoid drift rose.
	drifted := func(st *SegmentStore, start int) bool {
		baseline := st.IndexHealth().Clusters.MeanMedoidDrift
		ids := st.LiveRelations()
		for i := 0; i < len(ids)-1; i++ {
			if err := st.Delete(ids[(start+i)%len(ids)]); err != nil {
				t.Fatal(err)
			}
			if st.IndexHealth().Clusters.MeanMedoidDrift-baseline > bound {
				return true
			}
		}
		return false
	}
	var st *SegmentStore
	for start := 0; ; start++ {
		st = newStore()
		if start == len(st.LiveRelations()) {
			t.Fatal("no run of deletes raises the mean medoid drift over its baseline")
		}
		if drifted(st, start) {
			break
		}
	}
	if err := st.Maintain(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Compactions < 1 {
		t.Fatalf("drift trigger did not fire: %+v", s)
	}
	if s.LastCompactionTrigger != segment.TriggerMedoidDrift {
		t.Fatalf("trigger = %q, want %q (%+v)", s.LastCompactionTrigger, segment.TriggerMedoidDrift, s)
	}
	if s.DeadRelations != 0 {
		t.Fatalf("re-clustering left tombstones: %+v", s)
	}
}
