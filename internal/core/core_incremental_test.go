package core

import (
	"bytes"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/table"
)

func newRelation(id, topic string) *table.Relation {
	return &table.Relation{
		ID:      id,
		Source:  "src",
		Columns: []string{"A", "B"},
		Rows:    [][]string{{topic + " alpha", topic + " beta"}, {topic + " gamma", "42"}},
	}
}

// storeBuilders returns one SegmentBuilder per method, with small
// deterministic settings.
func storeBuilders() map[string]SegmentBuilder {
	return map[string]SegmentBuilder{
		"ExS": func(e *Embedded) (EncodedSearcher, error) { return NewExS(e, ExSOptions{}), nil },
		"ANNS": func(e *Embedded) (EncodedSearcher, error) {
			return NewANNS(e, ANNSOptions{Seed: 1, DisablePQ: true})
		},
		"CTS": func(e *Embedded) (EncodedSearcher, error) {
			return NewCTS(e, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 30})
		},
	}
}

// newStore builds a segment store for one method over fed.
func newStore(t *testing.T, method string, build SegmentBuilder, fed *table.Federation, model *embed.Model, policy ...SegmentStoreOptions) *SegmentStore {
	t.Helper()
	emb := EmbedFederation(fed, model)
	base, err := build(emb)
	if err != nil {
		t.Fatalf("%s: base build: %v", method, err)
	}
	opt := SegmentStoreOptions{Build: build, Method: method}
	if len(policy) > 0 {
		opt = policy[0]
		opt.Build = build
		opt.Method = method
	}
	return NewSegmentStore(emb, base, opt)
}

// TestAddRelationAllMethods: a relation added through the segment store
// lands in the mutable segment and is immediately searchable under every
// method, with no index rebuild on the write path.
func TestAddRelationAllMethods(t *testing.T) {
	fed := table.NewFederation()
	for i := 0; i < 10; i++ {
		fed.Add(newRelation(string(rune('a'+i)), "filler"))
	}
	model := embed.New(embed.Config{Dim: 64, Seed: 1})

	for method, build := range storeBuilders() {
		st := newStore(t, method, build, fed, model)
		if err := st.Add(newRelation("new-zebra", "zebra savanna wildlife")); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, err := st.Search("zebra wildlife", 3)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(got) == 0 || got[0].RelationID != "new-zebra" {
			t.Fatalf("%s: added relation not found: %v", method, got)
		}
		// Duplicate IDs must be rejected.
		if err := st.Add(newRelation("new-zebra", "x")); err == nil {
			t.Fatalf("%s: duplicate id accepted", method)
		}
		// Invalid relations must be rejected.
		if err := st.Add(&table.Relation{}); err == nil {
			t.Fatalf("%s: invalid relation accepted", method)
		}
	}
}

// TestDeleteAllMethods: a tombstoned relation disappears from every
// method's results immediately, whether it lives in the base segment or
// the mutable one; unknown IDs error.
func TestDeleteAllMethods(t *testing.T) {
	fed := table.NewFederation()
	for i := 0; i < 10; i++ {
		fed.Add(newRelation(string(rune('a'+i)), "filler"))
	}
	fed.Add(newRelation("base-zebra", "zebra savanna wildlife"))
	model := embed.New(embed.Config{Dim: 64, Seed: 1})

	for method, build := range storeBuilders() {
		st := newStore(t, method, build, fed, model)
		if err := st.Add(newRelation("mut-zebra", "zebra stripes herd")); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for _, id := range []string{"base-zebra", "mut-zebra"} {
			if err := st.Delete(id); err != nil {
				t.Fatalf("%s: delete %s: %v", method, id, err)
			}
		}
		got, err := st.Search("zebra wildlife", 5)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for _, m := range got {
			if m.RelationID == "base-zebra" || m.RelationID == "mut-zebra" {
				t.Fatalf("%s: deleted relation still ranked: %v", method, got)
			}
		}
		if err := st.Delete("base-zebra"); err == nil {
			t.Fatalf("%s: double delete accepted", method)
		}
		if err := st.Delete("never-existed"); err == nil {
			t.Fatalf("%s: unknown delete accepted", method)
		}
		// A deleted ID may be reused.
		if err := st.Add(newRelation("base-zebra", "zebra reborn")); err != nil {
			t.Fatalf("%s: re-add after delete: %v", method, err)
		}
	}
}

// TestUpdateReplacesContent: Update tombstones the old copy and the new
// content answers queries; the old content stops matching.
func TestUpdateReplacesContent(t *testing.T) {
	fed := table.NewFederation()
	for i := 0; i < 10; i++ {
		fed.Add(newRelation(string(rune('a'+i)), "filler"))
	}
	fed.Add(newRelation("subject", "zebra savanna wildlife"))
	fed.Add(newRelation("other-zebra", "zebra plains grazing"))
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	build := storeBuilders()["ExS"]
	st := newStore(t, "ExS", build, fed, model)

	if err := st.Update(newRelation("subject", "volcano magma eruption")); err != nil {
		t.Fatal(err)
	}
	got, err := st.Search("volcano eruption", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].RelationID != "subject" {
		t.Fatalf("updated content not found: %v", got)
	}
	got, err = st.Search("zebra wildlife", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].RelationID != "other-zebra" {
		t.Fatalf("stale content still outranks the live zebra: %v", got)
	}
	if err := st.Update(newRelation("never-existed", "x")); err == nil {
		t.Fatal("update of unknown relation accepted")
	}
	if st.NumLiveRelations() != 12 {
		t.Fatalf("live relations = %d, want 12", st.NumLiveRelations())
	}
}

func TestEmbeddedPersistRestore(t *testing.T) {
	fed := table.NewFederation()
	fed.Add(newRelation("r1", "solar panels energy"))
	fed.Add(newRelation("r2", "marine biology fish"))
	model := embed.New(embed.Config{Dim: 48, Seed: 9})
	emb := EmbedFederation(fed, model)

	var buf bytes.Buffer
	if err := emb.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEmbedded(bytes.NewReader(buf.Bytes()), model)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumValues() != emb.NumValues() || restored.NumRelations() != emb.NumRelations() {
		t.Fatal("shape lost")
	}
	// A searcher over the restored embedding must agree with the original.
	a, _ := NewExS(emb, ExSOptions{}).Search("solar energy", 2)
	b, _ := NewExS(restored, ExSOptions{}).Search("solar energy", 2)
	if len(a) != len(b) {
		t.Fatal("result lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored searcher differs: %v vs %v", a, b)
		}
	}
}

func TestRestoreEmbeddedValidation(t *testing.T) {
	model := embed.New(embed.Config{Dim: 48, Seed: 9})
	if _, err := RestoreEmbedded(bytes.NewReader([]byte("junk")), model); err == nil {
		t.Fatal("garbage must not restore")
	}
	// Dim mismatch.
	fed := table.NewFederation()
	fed.Add(newRelation("r1", "anything"))
	emb := EmbedFederation(fed, model)
	var buf bytes.Buffer
	emb.Persist(&buf)
	other := embed.New(embed.Config{Dim: 32, Seed: 9})
	if _, err := RestoreEmbedded(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("dim mismatch must fail")
	}

	// An image whose PerRel lists disagree with its values' relations (ExS
	// would score a relation by one and ANNS attribute hits by the other),
	// or whose text ids or rows do not fit its vocabulary, does not load.
	model = embed.New(embed.Config{Dim: 64, Seed: 3})
	emb = EmbedFederation(vocabFederation(), model)
	if _, err := RestoreEmbedded(bytes.NewReader(encodeImage(t, imageOfEmbedded(t, emb))), model); err != nil {
		t.Fatalf("unmodified image: %v", err)
	}
	for name, corrupt := range map[string]func(img *embeddedImage){
		"value moved to another relation's list": func(img *embeddedImage) {
			img.PerRel[1] = append(img.PerRel[1], img.PerRel[0][0])
			img.PerRel[0] = img.PerRel[0][1:]
		},
		"value in two lists": func(img *embeddedImage) {
			img.PerRel[1] = append(img.PerRel[1], img.PerRel[0][0])
		},
		"value twice in its own list": func(img *embeddedImage) {
			img.PerRel[0] = append(img.PerRel[0], img.PerRel[0][0])
		},
		"value in no list": func(img *embeddedImage) { img.PerRel[0] = img.PerRel[0][1:] },
		"list index out of range": func(img *embeddedImage) {
			img.PerRel[0] = append(img.PerRel[0], int32(len(img.Rels)))
		},
		"text id out of range":  func(img *embeddedImage) { img.TextIDs[0] = int32(len(img.Texts)) },
		"negative text id":      func(img *embeddedImage) { img.TextIDs[0] = -1 },
		"short row":             func(img *embeddedImage) { img.Vecs[0] = img.Vecs[0][:63] },
		"text stored twice":     func(img *embeddedImage) { img.Texts[1] = img.Texts[0] },
		"missing text ids":      func(img *embeddedImage) { img.TextIDs = img.TextIDs[1:] },
		"relation out of range": func(img *embeddedImage) { img.Rels[0] = int32(len(img.RelIDs)) },
		"v1 text with two vectors": func(img *embeddedImage) {
			*img = v1Image(*img)
			i, j := firstRepeat(img.Texts)
			img.Vecs[j] = append([]float32(nil), img.Vecs[i]...)
			img.Vecs[j][0] = -img.Vecs[j][0]
		},
		"v1 without texts": func(img *embeddedImage) {
			*img = v1Image(*img)
			img.Texts = nil
		},
		"v1 short row": func(img *embeddedImage) {
			*img = v1Image(*img)
			img.Vecs[2] = img.Vecs[2][:1]
		},
	} {
		img := imageOfEmbedded(t, emb)
		corrupt(&img)
		if _, err := RestoreEmbedded(bytes.NewReader(encodeImage(t, img)), model); err == nil {
			t.Errorf("%s: image loaded", name)
		}
	}
}
