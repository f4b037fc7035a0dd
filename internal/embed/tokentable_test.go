package embed

import (
	"math"
	"sync"
	"testing"

	"semdisco/internal/obs"
	"semdisco/internal/text"
)

// TestTokenTableConcurrentEncode: the token table holds each token's
// vector and IDF weight. Encode and EncodeAll from many goroutines over one
// model must return, bit for bit, what a fresh model returns for each text
// encoded alone; the IDF callback must run once per distinct token however
// many goroutines miss it together; and CacheStats must count a miss per
// distinct token and a hit for every other token lookup.
func TestTokenTableConcurrentEncode(t *testing.T) {
	words := []string{"vaccine", "vaccines", "covid", "europe", "dosage", "the", "of", "2021", "2020", "car", "automobile", "weather", "table", "médaille"}
	var texts []string
	for i := 0; i < 120; i++ {
		s := words[i%len(words)]
		for j := 1; j <= i%5; j++ {
			s += " " + words[(i*7+j*3)%len(words)]
		}
		texts = append(texts, s)
	}
	texts = append(texts, "", "the of", "the of")
	lex := NewLexicon()
	lex.AddSynonyms("car", "automobile", "vehicle")
	idf := func(tok string) float64 { return 1 + math.Log1p(float64(len(tok)%7)) }
	cfg := Config{Dim: 64, Seed: 9, Lexicon: lex, IDF: idf}

	want := make([][]float32, len(texts))
	for i, s := range texts {
		want[i] = New(cfg).Encode(s)
	}

	var mu sync.Mutex
	calls := make(map[string]int)
	counted := cfg
	counted.IDF = func(tok string) float64 {
		mu.Lock()
		calls[tok]++
		mu.Unlock()
		return idf(tok)
	}
	m := New(counted)
	m.SetObserver(obs.NewRegistry())

	const goroutines, rounds = 8, 3
	got := make([][][]float32, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if g%2 == 0 {
					got[g] = m.EncodeAll(texts)
					continue
				}
				got[g] = make([][]float32, len(texts))
				for i, s := range texts {
					got[g][i] = m.Encode(s)
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range texts {
			for j, x := range want[i] {
				if got[g][i][j] != x {
					t.Fatalf("goroutine %d, text %q: component %d is %v, a fresh model gives %v", g, texts[i], j, got[g][i][j], x)
				}
			}
		}
	}

	distinct := make(map[string]bool)
	lookups := 0
	for _, s := range texts {
		toks := text.Tokenize(s)
		content := text.RemoveStopwords(toks)
		if len(content) == 0 {
			content = toks
		}
		for _, tok := range content {
			distinct[tok] = true
		}
		lookups += len(content)
	}
	for tok, n := range calls {
		if n != 1 {
			t.Errorf("IDF(%q) ran %d times", tok, n)
		}
	}
	if len(calls) != len(distinct) {
		t.Errorf("IDF ran for %d tokens, the texts hold %d distinct ones", len(calls), len(distinct))
	}
	hits, misses := m.CacheStats()
	total := int64(goroutines * rounds * lookups)
	if misses != int64(len(distinct)) || hits+misses != total {
		t.Errorf("CacheStats hits %d misses %d, want misses %d and %d lookups in all", hits, misses, len(distinct), total)
	}
}
