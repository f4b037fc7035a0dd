package embed

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"semdisco/internal/obs"
	"semdisco/internal/text"
	"semdisco/internal/vec"
)

func newTestModel(t testing.TB) *Model {
	t.Helper()
	lex := NewLexicon()
	lex.AddSynonyms("Comirnaty", "Pfizer-BioNTech", "BNT162b2", "tozinameran")
	lex.AddSynonyms("COVID", "coronavirus", "SARS-CoV-2", "covid19")
	lex.AddSynonyms("car", "automobile", "vehicle")
	lex.AddSynonyms("climate", "weather", "meteorological")
	return New(Config{Dim: 128, Seed: 42, Lexicon: lex})
}

func TestEncodeUnitNorm(t *testing.T) {
	m := newTestModel(t)
	for _, s := range []string{"covid vaccine dosage", "a", "", "the of and", "2021-01-01", "日本語"} {
		v := m.Encode(s)
		if len(v) != 128 {
			t.Fatalf("dim=%d", len(v))
		}
		n := vec.Norm(v)
		if math.Abs(float64(n)-1) > 1e-4 {
			t.Fatalf("Encode(%q) norm=%v want 1", s, n)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := newTestModel(t)
	b := newTestModel(t)
	s := "Beijing Olympics medal table"
	va, vb := a.Encode(s), b.Encode(s)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatal("two identically-configured models disagree")
		}
	}
}

func TestSeedChangesEmbedding(t *testing.T) {
	a := New(Config{Dim: 64, Seed: 1})
	b := New(Config{Dim: 64, Seed: 2})
	if vec.Cosine(a.Encode("hello world"), b.Encode("hello world")) > 0.5 {
		t.Fatal("different seeds should give unrelated embeddings")
	}
}

func TestSynonymsAreClose(t *testing.T) {
	m := newTestModel(t)
	synonym := vec.Cosine(m.Encode("Comirnaty"), m.Encode("Pfizer-BioNTech"))
	unrelated := vec.Cosine(m.Encode("Comirnaty"), m.Encode("automobile"))
	if synonym < 0.4 {
		t.Fatalf("synonym cosine=%v, want >= 0.4", synonym)
	}
	if unrelated > 0.25 {
		t.Fatalf("unrelated cosine=%v, want <= 0.25", unrelated)
	}
	if synonym <= unrelated+0.2 {
		t.Fatalf("synonym (%v) must clearly dominate unrelated (%v)", synonym, unrelated)
	}
}

func TestInflectionMatches(t *testing.T) {
	m := newTestModel(t)
	got := vec.Cosine(m.Encode("vaccines"), m.Encode("vaccine"))
	if got < 0.9 {
		t.Fatalf("inflected cosine=%v, want >= 0.9", got)
	}
}

func TestSentenceOverlapOrdering(t *testing.T) {
	m := newTestModel(t)
	q := m.Encode("covid vaccine europe")
	near := m.Encode("coronavirus vaccine germany")   // synonym overlap
	far := m.Encode("stadium capacity football club") // none
	if vec.Cosine(q, near) <= vec.Cosine(q, far) {
		t.Fatalf("semantic overlap must beat none: near=%v far=%v",
			vec.Cosine(q, near), vec.Cosine(q, far))
	}
}

func TestNumericGradedSimilarity(t *testing.T) {
	m := newTestModel(t)
	y2020 := m.Encode("2020")
	y2021 := m.Encode("2021")
	y37 := m.Encode("37")
	word := m.Encode("giraffe")
	sameEra := vec.Cosine(y2020, y2021)
	diffMagnitude := vec.Cosine(y2020, y37)
	nonNumeric := vec.Cosine(y2020, word)
	if !(sameEra > diffMagnitude && diffMagnitude > nonNumeric) {
		t.Fatalf("numeric similarity not graded: %v > %v > %v expected",
			sameEra, diffMagnitude, nonNumeric)
	}
	if sameEra < 0.6 {
		t.Fatalf("adjacent years too dissimilar: %v", sameEra)
	}
}

func TestStopwordsIgnored(t *testing.T) {
	m := newTestModel(t)
	a := m.Encode("the covid vaccine")
	b := m.Encode("covid vaccine")
	if got := vec.Cosine(a, b); got < 0.999 {
		t.Fatalf("stopwords changed the embedding: cosine=%v", got)
	}
}

func TestStopwordOnlyInput(t *testing.T) {
	m := newTestModel(t)
	v := m.Encode("the of and")
	if vec.Norm(v) == 0 {
		t.Fatal("stopword-only input produced a zero vector")
	}
}

func TestEmptyNotZero(t *testing.T) {
	m := newTestModel(t)
	if vec.Norm(m.Encode("")) == 0 {
		t.Fatal("empty input produced a zero vector")
	}
}

func TestNoLexiconStillWorks(t *testing.T) {
	m := New(Config{Dim: 64, Seed: 7})
	same := vec.Cosine(m.Encode("vaccination"), m.Encode("vaccinations"))
	diff := vec.Cosine(m.Encode("vaccination"), m.Encode("zebra"))
	if same <= diff {
		t.Fatalf("lexical model ordering broken: same=%v diff=%v", same, diff)
	}
}

func TestEncodeAllMatchesEncode(t *testing.T) {
	m := newTestModel(t)
	ss := []string{"alpha", "beta", "covid vaccine", "", "2020"}
	batch := m.EncodeAll(ss)
	for i, s := range ss {
		single := m.Encode(s)
		for j := range single {
			if batch[i][j] != single[j] {
				t.Fatalf("EncodeAll[%d] != Encode(%q)", i, s)
			}
		}
	}
}

// TestEncodeAllIntoReusesStorage encodes into storage a longer earlier
// call left dirty and holds each vector to Encode's.
func TestEncodeAllIntoReusesStorage(t *testing.T) {
	m := newTestModel(t)
	buf, vecs := m.EncodeAllInto(nil, nil, []string{"vaccine dose", "Europe", "2021 Pfizer", "mRNA", "the"})
	for _, ss := range [][]string{{"alpha", "", "covid 19"}, {"Moderna"}, {}} {
		buf, vecs = m.EncodeAllInto(buf, vecs, ss)
		if len(vecs) != len(ss) {
			t.Fatalf("%d vectors for %d texts", len(vecs), len(ss))
		}
		for i, s := range ss {
			if !slices.Equal(vecs[i], m.Encode(s)) {
				t.Fatalf("EncodeAllInto(%q) != Encode", s)
			}
		}
	}
}

func TestTruncatingEncoder(t *testing.T) {
	m := newTestModel(t)
	long := "covid vaccine europe germany france spain italy dosage manufacturer trade name"
	full := m.Encode(long)
	tr := Truncating{M: m, MaxTokens: 2}
	cut := tr.Encode(long)
	if vec.Cosine(full, cut) > 0.999 {
		t.Fatal("truncation had no effect")
	}
	// Truncated must equal encoding the prefix.
	prefix := m.Encode("covid vaccine")
	if vec.Cosine(cut, prefix) < 0.999 {
		t.Fatal("truncated encoding must equal prefix encoding")
	}
	if tr.Dim() != m.Dim() {
		t.Fatal("Dim mismatch")
	}
}

func TestIDFWeighting(t *testing.T) {
	lex := NewLexicon()
	idf := func(term string) float64 {
		if term == "common" {
			return 0.1
		}
		return 3.0
	}
	m := New(Config{Dim: 64, Seed: 3, Lexicon: lex, IDF: idf})
	withCommon := m.Encode("common giraffe")
	rare := m.Encode("giraffe")
	if got := vec.Cosine(withCommon, rare); got < 0.9 {
		t.Fatalf("low-IDF term dominated the embedding: cosine=%v", got)
	}
}

func TestEncodePropertyUnitNormAndFinite(t *testing.T) {
	m := newTestModel(t)
	f := func(s string) bool {
		v := m.Encode(s)
		var norm float64
		for _, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				return false
			}
			norm += float64(x) * float64(x)
		}
		return math.Abs(norm-1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLexicon(t *testing.T) {
	lex := NewLexicon()
	id := lex.AddSynonyms("COVID", "coronavirus")
	if got, ok := lex.Concept("covid"); !ok || got != id {
		t.Fatalf("Concept(covid)=%v,%v", got, ok)
	}
	// Stemmed lookup: registered via Add with tokenization+stemming.
	lex.Add(id, "vaccinations")
	if got, ok := lex.Concept("vaccin"); !ok || got != id {
		t.Fatalf("stemmed Concept=%v,%v", got, ok)
	}
	if lex.NumConcepts() != 1 {
		t.Fatalf("NumConcepts=%d", lex.NumConcepts())
	}
	id2 := lex.NewConcept()
	if id2 == id {
		t.Fatal("NewConcept reused an id")
	}
	if lex.Len() == 0 || len(lex.Terms()) != lex.Len() {
		t.Fatal("Terms/Len inconsistent")
	}
}

func BenchmarkEncodeShort(b *testing.B) {
	m := New(Config{Dim: DefaultDim, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Encode("covid vaccine europe")
	}
}

func BenchmarkEncodeColdToken(b *testing.B) {
	m := New(Config{Dim: DefaultDim, Seed: 1})
	words := make([]string, 1024)
	for i := range words {
		words[i] = "tok" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Encode(words[i%len(words)])
	}
}

// TestEncodeMatchesTokenPath holds Encode, which tokenizes into a reused
// buffer and looks tokens up as bytes, to the per-token path
// EncodeTokens(text.Tokenize(s)) bit for bit, on edge cases and on random
// strings over letters, digits, separators and runes whose lowercase has
// another UTF-8 length. Each path runs on its own model, so both fill their
// token tables from the same queries, and the two tables' hit and miss
// counts must agree too.
func TestEncodeMatchesTokenPath(t *testing.T) {
	fast, slow := newTestModel(t), newTestModel(t)
	fastReg, slowReg := obs.NewRegistry(), obs.NewRegistry()
	fast.SetObserver(fastReg)
	slow.SetObserver(slowReg)
	check := func(s string) {
		t.Helper()
		got, want := fast.Encode(s), slow.EncodeTokens(text.Tokenize(s))
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("Encode(%q)[%d] = %#08x, per-token path %#08x", s, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	cases := []string{
		"", " ", "the", "the of and", "The OF and a", "covid vaccine covid",
		// Lower-casing shortens U+0130 (2 bytes to 1) and U+212A, the
		// Kelvin sign (3 bytes to 1): token offsets follow the lowered bytes.
		"\u0130stanbul", "\u0130\u0130x", "\u212Aelvin", "\u212A\u212A", "\u01C5emal", "\u03A3\u0391\u03A3",
		"\xff\xfeabc\xc3", "a\xc3(b", "covid19", "2021-01-01", "x1y2z3",
		"\u0663\u0664abc\u0665", "\u216B\u2163", "\u65E5\u672C\u8A9E text", "COVID-19 vaccinations per country",
		"Pfizer-BioNTech BNT162b2", "\u00AD\u200Bzero\u200Dwidth",
	}
	for _, s := range cases {
		check(s)
	}
	alphabet := []rune("aZkq09 -_,.\u0130\u0131\u212AkK\u00DF\u03A3\u03C3\u03C2\u65E5\u672Ce\u0301\u0663\uFFFD\x00\t")
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 3000; n++ {
		var b strings.Builder
		for l := rng.Intn(24); l > 0; l-- {
			if rng.Intn(16) == 0 {
				b.WriteByte(byte(0x80 + rng.Intn(0x80))) // a stray byte: invalid UTF-8
				continue
			}
			b.WriteRune(alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(8) == 0 {
			b.WriteString(" the of")
		}
		check(b.String())
	}
	fh, fm := fast.CacheStats()
	sh, sm := slow.CacheStats()
	if fh != sh || fm != sm {
		t.Fatalf("token table counts: Encode %d hits / %d misses, per-token path %d / %d", fh, fm, sh, sm)
	}
}

// TestEncodeAllocsOnlyItsResult pins Encode's allocation floor: once every
// token of a query is in the table, encoding it allocates the result and
// nothing else.
func TestEncodeAllocsOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	m := newTestModel(t)
	m.SetObserver(obs.NewRegistry())
	const q = "COVID-19 vaccinations per country in Europe, 2021"
	m.Encode(q)
	if n := testing.AllocsPerRun(100, func() { m.Encode(q) }); n != 1 {
		t.Fatalf("Encode of a cached query allocates %v times, want 1", n)
	}
}
