package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/table"
)

// sharedText occurs in every relation of vocabFederation.
const sharedText = "harbour crane"

// vocabFederation is three relations that each hold sharedText twice,
// plus one that does not hold it.
func vocabFederation() *table.Federation {
	fed := table.NewFederation()
	for i, topic := range []string{"solar energy", "coral fish", "railway trains"} {
		fed.Add(&table.Relation{
			ID: fmt.Sprintf("r%d", i), Source: "src", Columns: []string{"A", "B"},
			Rows: [][]string{{sharedText, topic + " alpha"}, {topic + " beta", sharedText}},
		})
	}
	fed.Add(newRelation("other", "magma geology"))
	return fed
}

// assertVocabulary requires one row per distinct text, each row the bits
// Encode gives its text, and every value pointing at its text's row.
func assertVocabulary(t *testing.T, label string, emb *Embedded) {
	t.Helper()
	if len(emb.rows) != len(emb.texts) {
		t.Fatalf("%s: %d rows for %d texts", label, len(emb.rows), len(emb.texts))
	}
	used := make([]bool, len(emb.texts))
	for i, v := range emb.Values {
		if v.Text < 0 || int(v.Text) >= len(emb.texts) {
			t.Fatalf("%s: value %d references text %d of %d", label, i, v.Text, len(emb.texts))
		}
		if &v.Vec[0] != &emb.rows[v.Text][0] {
			t.Fatalf("%s: value %d does not share its text's row", label, i)
		}
		used[v.Text] = true
	}
	seen := make(map[string]bool, len(emb.texts))
	for id, text := range emb.texts {
		if seen[text] {
			t.Fatalf("%s: text %q has two rows", label, text)
		}
		seen[text] = true
		if !used[id] {
			t.Fatalf("%s: text %q is referenced by no value", label, text)
		}
		if !sameBits(emb.rows[id], emb.Enc.Encode(text)) {
			t.Fatalf("%s: row of %q is not Encode(%q)", label, text, text)
		}
	}
}

// textID returns text's vocabulary id, failing unless it has exactly one.
func textID(t *testing.T, emb *Embedded, text string) int32 {
	t.Helper()
	id := int32(-1)
	for i, s := range emb.texts {
		if s == text {
			if id >= 0 {
				t.Fatalf("text %q has rows %d and %d", text, id, i)
			}
			id = int32(i)
		}
	}
	if id < 0 {
		t.Fatalf("text %q has no row", text)
	}
	return id
}

// TestEmbedFederationInternsTexts: a text shared by three relations is
// encoded into one row that all their values point at, and a relation
// added later with the same text, then compacted into the base segment,
// leaves the merged segment with one row per text, ranking as the oracle
// ranks it.
func TestEmbedFederationInternsTexts(t *testing.T) {
	model := embed.New(embed.Config{Dim: 64, Seed: 3})
	emb := EmbedFederation(vocabFederation(), model)
	assertVocabulary(t, "build", emb)
	id := textID(t, emb, sharedText)
	for rel := 0; rel < 3; rel++ {
		n := 0
		for _, vi := range emb.PerRel[rel] {
			if v := emb.Values[vi]; v.Text == id {
				n++
				if v.Weight != 2 || &v.Vec[0] != &emb.rows[id][0] {
					t.Fatalf("relation %d: shared value %+v does not point at row %d", rel, v, id)
				}
			}
		}
		if n != 1 {
			t.Fatalf("relation %d holds the shared text %d times", rel, n)
		}
	}
	// r0..r2 hold the shared text and two topic texts each, "other" four
	// cells of its own: 13 values over 11 texts.
	if emb.NumTexts() != 11 || emb.NumValues() != 13 {
		t.Fatalf("%d texts over %d values, want 11 over 13", emb.NumTexts(), emb.NumValues())
	}

	st := NewSegmentStore(emb, NewExS(emb, ExSOptions{}), SegmentStoreOptions{Build: storeBuilders()["ExS"], Method: "ExS"})
	late := &table.Relation{ID: "late", Source: "src", Columns: []string{"A"},
		Rows: [][]string{{sharedText}, {"late gamma"}, {sharedText}}}
	if err := st.Add(late); err != nil {
		t.Fatal(err)
	}
	mut := storeEmbeddeds(st)[1]
	assertVocabulary(t, "mutable", mut)
	if got := st.Stats().Texts; got != emb.NumTexts()+2 {
		t.Fatalf("stats count %d texts before compaction, want %d", got, emb.NumTexts()+2)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	merged := storeEmbeddeds(st)[0]
	assertVocabulary(t, "compacted", merged)
	textID(t, merged, sharedText)
	if merged.NumTexts() != emb.NumTexts()+1 || st.Stats().Texts != merged.NumTexts() {
		t.Fatalf("compacted segment has %d texts (stats %d), want %d", merged.NumTexts(), st.Stats().Texts, emb.NumTexts()+1)
	}
	for _, q := range append(churnQueries, sharedText, "late gamma") {
		got, err := st.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRank(merged, model.Encode(q), 5, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: store %v, oracle %v", q, got, want)
		}
	}
}

// imageOfEmbedded returns emb's image in the layout Persist writes.
func imageOfEmbedded(t testing.TB, emb *Embedded) embeddedImage {
	t.Helper()
	var buf bytes.Buffer
	if err := emb.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	var img embeddedImage
	if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
		t.Fatal(err)
	}
	return img
}

// v1Image rewrites a version-2 image in the version-1 layout: a text and a
// vector per value, no text ids.
func v1Image(img embeddedImage) embeddedImage {
	texts, vecs, ids := img.Texts, img.Vecs, img.TextIDs
	img.Version, img.Texts, img.Vecs, img.TextIDs = 1, nil, nil, nil
	for _, id := range ids {
		img.Texts = append(img.Texts, texts[id])
		img.Vecs = append(img.Vecs, append([]float32(nil), vecs[id]...))
	}
	return img
}

func encodeImage(t testing.TB, img embeddedImage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreEmbeddedReadsV1AndV2: the version-2 image Persist writes and
// the version-1 layout of the same federation restore to the same
// vocabulary, values and centroids, and the version-2 image is the
// smaller.
func TestRestoreEmbeddedReadsV1AndV2(t *testing.T) {
	model := embed.New(embed.Config{Dim: 64, Seed: 3})
	emb := EmbedFederation(vocabFederation(), model)
	img := imageOfEmbedded(t, emb)
	if img.Version != 2 || len(img.Vecs) != emb.NumTexts() {
		t.Fatalf("Persist wrote version %d with %d vectors for %d texts", img.Version, len(img.Vecs), emb.NumTexts())
	}
	v2, v1 := encodeImage(t, img), encodeImage(t, v1Image(img))
	if len(v2) >= len(v1) {
		t.Fatalf("version 2 image is %d bytes, version 1 %d", len(v2), len(v1))
	}
	for name, blob := range map[string][]byte{"v1": v1, "v2": v2} {
		got, err := RestoreEmbedded(bytes.NewReader(blob), model)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertVocabulary(t, name, got)
		if !reflect.DeepEqual(got.texts, emb.texts) || !reflect.DeepEqual(got.Values, emb.Values) ||
			!reflect.DeepEqual(got.PerRel, emb.PerRel) || !reflect.DeepEqual(got.Centroids, emb.Centroids) ||
			!reflect.DeepEqual(got.CentroidErr, emb.CentroidErr) {
			t.Fatalf("%s: restored embedding differs from the one saved", name)
		}
	}
}

// firstRepeat returns the first two indices holding the same string.
func firstRepeat(ss []string) (int, int) {
	first := make(map[string]int)
	for j, s := range ss {
		if i, ok := first[s]; ok {
			return i, j
		}
		first[s] = j
	}
	panic("no repeated string")
}

// FuzzRestoreEmbedded feeds RestoreEmbedded arbitrary bytes, seeded with a
// version-1 and a version-2 image. It must never panic; an image it accepts
// must be internally consistent, search without panicking, and reload
// from its own Persist output.
func FuzzRestoreEmbedded(f *testing.F) {
	model := embed.New(embed.Config{Dim: 8, Seed: 1})
	fed := table.NewFederation()
	fed.Add(&table.Relation{ID: "a", Source: "s", Columns: []string{"x"}, Rows: [][]string{{"p"}, {"q"}}})
	fed.Add(&table.Relation{ID: "b", Source: "s", Columns: []string{"x"}, Rows: [][]string{{"q"}}})
	img := imageOfEmbedded(f, EmbedFederation(fed, model))
	f.Add(encodeImage(f, img))
	f.Add(encodeImage(f, v1Image(img)))
	f.Fuzz(func(t *testing.T, data []byte) {
		emb, err := RestoreEmbedded(bytes.NewReader(data), model)
		if err != nil {
			return
		}
		if err := checkPerRel(emb); err != nil {
			t.Fatalf("accepted an inconsistent image: %v", err)
		}
		for i, v := range emb.Values {
			if len(v.Vec) != model.Dim() {
				t.Fatalf("value %d has a row of %d floats", i, len(v.Vec))
			}
		}
		if _, err := NewExS(emb, ExSOptions{}).Search("p q", 3); err != nil {
			t.Fatalf("search: %v", err)
		}
		var out bytes.Buffer
		if err := emb.Persist(&out); err != nil {
			t.Fatal(err)
		}
		again, err := RestoreEmbedded(&out, model)
		if err != nil {
			t.Fatalf("a persisted image does not reload: %v", err)
		}
		if again.NumValues() != emb.NumValues() || again.NumTexts() != emb.NumTexts() {
			t.Fatalf("%d values over %d texts reload as %d over %d",
				emb.NumValues(), emb.NumTexts(), again.NumValues(), again.NumTexts())
		}
	})
}
