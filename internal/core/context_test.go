package core

import (
	"context"
	"errors"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/table"
)

func newTestEncoder(dim int) embed.Encoder {
	return embed.New(embed.Config{Dim: dim, Seed: 1})
}

// testFederation builds a small synthetic federation of n relations.
func testFederation(t *testing.T, n int) *table.Federation {
	t.Helper()
	fed := table.NewFederation()
	for i := 0; i < n; i++ {
		r := &table.Relation{
			ID:      relID(i),
			Source:  "src",
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	return fed
}

func relID(i int) string {
	return "rel-" + string(rune('a'+i%26)) + "-" + string(rune('0'+(i/26)%10)) + string(rune('0'+i%10))
}

func word(i, j int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
}

// TestSearchContextCancelled verifies every method surfaces the context
// error instead of a result when the context is already cancelled.
func TestSearchContextCancelled(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	searchers := []EncodedSearcher{NewExS(emb, ExSOptions{})}
	if anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true}); err != nil {
		t.Fatalf("anns: %v", err)
	} else {
		searchers = append(searchers, anns)
	}
	if cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA}); err != nil {
		t.Fatalf("cts: %v", err)
	} else {
		searchers = append(searchers, cts)
	}

	for _, s := range searchers {
		name := s.Name()
		matches, err := Search(ctx, s, emb.Enc, emb.Obs, "abc", 5)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got matches=%v err=%v", name, matches, err)
		}
		matches, err = s.SearchEncoded(ctx, emb.Enc.Encode("abc"), 5)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s SearchEncoded: want context.Canceled, got matches=%v err=%v", name, matches, err)
		}
	}
}

// TestSearchContextBackground verifies the context path returns identical
// results to the plain path when the context never expires.
func TestSearchContextBackground(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))
	s := NewExS(emb, ExSOptions{})

	plain, err := s.Search("abc def", 10)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	ctxed, err := s.SearchEncoded(context.Background(), emb.Enc.Encode("abc def"), 10)
	if err != nil {
		t.Fatalf("ctx search: %v", err)
	}
	if len(plain) != len(ctxed) {
		t.Fatalf("result mismatch: %d vs %d", len(plain), len(ctxed))
	}
	for i := range plain {
		if plain[i] != ctxed[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, plain[i], ctxed[i])
		}
	}
}
