package embed

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"semdisco/internal/obs"
	"semdisco/internal/text"
	"semdisco/internal/vec"
)

// DefaultDim matches the paper's configuration: all-mpnet-base-v2 produces
// 768-dimensional sentence embeddings.
const DefaultDim = 768

// MinDim is the smallest dimensionality New accepts.
const MinDim = 8

// Encoder is the minimal contract the rest of the system depends on: map a
// string to a fixed-dimension unit vector. Model satisfies it, and so do the
// constrained wrappers used by the baselines.
type Encoder interface {
	// Dim returns the embedding dimensionality.
	Dim() int
	// Encode returns the unit-norm embedding of s. The returned slice is
	// owned by the caller.
	Encode(s string) []float32
}

// Config parameterizes a Model. The zero value of optional fields selects
// documented defaults.
type Config struct {
	// Dim is the embedding dimensionality. Defaults to DefaultDim (768).
	Dim int
	// Seed keys every hash stream; two models with equal Config produce
	// identical embeddings.
	Seed int64
	// Lexicon supplies the concept structure. May be nil, in which case the
	// encoder is purely lexical (hash + char-n-grams), i.e. a model with no
	// semantic pretraining.
	Lexicon *Lexicon
	// ConceptWeight is the mixture weight of the shared concept component of
	// an in-lexicon token. Defaults to 0.72: dominant enough that synonyms
	// have cosine ≈ ConceptWeight² ≈ 0.52 with zero lexical overlap, small
	// enough that a term remains distinguishable from its synonyms.
	ConceptWeight float32
	// NGramN is the character-n-gram order for out-of-lexicon backoff.
	// Defaults to 3.
	NGramN int
	// IDF optionally weights tokens during pooling; unweighted if nil. It
	// must be a pure function of the token: the model calls it once per
	// distinct token and keeps the weight beside the token's vector.
	IDF func(term string) float64
}

// Model is the deterministic sentence encoder. It is safe for concurrent
// use; token vectors are memoized internally because table corpora repeat
// values heavily.
type Model struct {
	dim           int
	seed          uint64
	lex           *Lexicon
	conceptWeight float32
	ngramN        int
	idf           func(string) float64

	mu    sync.RWMutex
	cache map[string]*tokenEntry

	// Observability hooks, resolved once by SetObserver so the per-token
	// hot path is a single atomic add. Nil hooks are no-ops.
	obsHits   *obs.Counter
	obsMisses *obs.Counter
	obsSize   *obs.Gauge
}

// tokenEntry is one token's cached embedding: its unit vector and its
// pooling weight (the IDF callback's value as float32, 1 without one),
// both filled by the first lookup to pass once.
type tokenEntry struct {
	once sync.Once
	vec  []float32
	w    float32
}

// SetObserver wires the encoder's token-cache instrumentation (hits,
// misses, resident entries) into a metrics registry. A nil registry keeps
// instrumentation off.
func (m *Model) SetObserver(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.obsHits = reg.Counter("semdisco_embed_cache_hits_total")
	m.obsMisses = reg.Counter("semdisco_embed_cache_misses_total")
	m.obsSize = reg.Gauge("semdisco_embed_cache_size")
	m.obsSize.Set(float64(len(m.cache)))
}

// CacheStats reports the token cache's cumulative hits and misses since
// SetObserver (0, 0 when no observer is attached).
func (m *Model) CacheStats() (hits, misses int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.obsHits.Value(), m.obsMisses.Value()
}

// New constructs a Model from cfg.
func New(cfg Config) *Model {
	if cfg.Dim == 0 {
		cfg.Dim = DefaultDim
	}
	if cfg.Dim < MinDim {
		panic(fmt.Sprintf("embed: dimension %d too small", cfg.Dim))
	}
	if cfg.ConceptWeight == 0 {
		cfg.ConceptWeight = 0.72
	}
	if cfg.NGramN == 0 {
		cfg.NGramN = 3
	}
	return &Model{
		dim:           cfg.Dim,
		seed:          uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		lex:           cfg.Lexicon,
		conceptWeight: cfg.ConceptWeight,
		ngramN:        cfg.NGramN,
		idf:           cfg.IDF,
		cache:         make(map[string]*tokenEntry),
	}
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// Encode embeds a string: tokenize, embed each token, IDF-weighted mean
// pool, L2 normalize. Stopwords are dropped unless the string consists only
// of stopwords. The empty string embeds to a fixed "null" direction so that
// downstream code never sees a zero vector.
//
// It returns EncodeTokens(text.Tokenize(s))'s bits without a string per
// token: the tokens are lowercased into one reused buffer and looked up in
// the token table as bytes, all under one read lock, with one add to the
// hits counter. A query whose tokens are all in the table allocates only
// its result; a token the table lacks takes token's path, which allocates
// its key.
func (m *Model) Encode(s string) []float32 {
	return m.encodeInto(make([]float32, m.dim), s)
}

// encodeInto is Encode into out, a zeroed vector of m.dim entries.
func (m *Model) encodeInto(out []float32, s string) []float32 {
	sc := encodeScratchPool.Get().(*encodeScratch)
	defer sc.release()
	sc.buf, sc.ends = text.AppendTokens(sc.buf[:0], sc.ends[:0], s)
	tok := func(i int) []byte {
		start := 0
		if i > 0 {
			start = sc.ends[i-1]
		}
		return sc.buf[start:sc.ends[i]]
	}

	// The content tokens, in order: the non-stopwords, or every token when
	// all are stopwords.
	content := sc.content[:0]
	for i := range sc.ends {
		if !text.IsStopword(string(tok(i))) {
			content = append(content, i)
		}
	}
	if len(content) == 0 {
		for i := range sc.ends {
			content = append(content, i)
		}
	}
	sc.content = content
	if len(content) == 0 {
		gaussianVec(out, m.seed, "\x00empty")
		return out
	}

	entries := sc.entries[:0]
	var hits int64
	m.mu.RLock()
	for _, i := range content {
		e := m.cache[string(tok(i))]
		if e != nil {
			hits++
		}
		entries = append(entries, e)
	}
	obsHits := m.obsHits
	m.mu.RUnlock()
	obsHits.Add(hits)
	sc.entries = entries
	for j, e := range entries {
		if e == nil {
			e = m.token(string(tok(content[j])))
		} else {
			e.once.Do(func() { m.fill(e, string(tok(content[j]))) })
		}
		vec.AddScaled(out, e.w, e.vec)
	}
	vec.Normalize(out)
	return out
}

// encodeScratch is one Encode call's reusable state: the lowercased token
// bytes and their end offsets, the content tokens' indices and their table
// entries.
type encodeScratch struct {
	buf     []byte
	ends    []int
	content []int
	entries []*tokenEntry
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// release returns sc to the pool, dropping its entry pointers, unless a
// long text grew its buffer past what queries need.
func (sc *encodeScratch) release() {
	if cap(sc.buf) > 1<<16 {
		return
	}
	clear(sc.entries)
	encodeScratchPool.Put(sc)
}

// EncodeTokens is Encode for pre-tokenized input. Used directly by the
// token-budgeted baseline encoders.
func (m *Model) EncodeTokens(toks []string) []float32 {
	content := text.RemoveStopwords(toks)
	if len(content) == 0 {
		content = toks
	}
	out := make([]float32, m.dim)
	if len(content) == 0 {
		gaussianVec(out, m.seed, "\x00empty")
		return out
	}
	for _, tok := range content {
		e := m.token(tok)
		vec.AddScaled(out, e.w, e.vec)
	}
	vec.Normalize(out)
	return out
}

// TokenVec returns the unit embedding of one token. The returned slice is
// shared with the model's cache and must be treated as read-only; it exists
// for early-fusion scorers that compare token sets pairwise.
func (m *Model) TokenVec(tok string) []float32 { return m.token(tok).vec }

// token returns the memoized entry of a single token. A lookup that finds
// the entry is a hit; the one that inserts it is the miss, so misses count
// distinct tokens. The entry's vector and weight are computed once, outside
// the table lock, by whichever lookup reaches the entry's once first; a
// lookup of the same token meanwhile waits for that one. So the IDF
// callback runs once per distinct token.
func (m *Model) token(tok string) *tokenEntry {
	m.mu.RLock()
	e := m.cache[tok]
	hits := m.obsHits
	m.mu.RUnlock()
	if e != nil {
		hits.Inc()
	} else {
		m.mu.Lock()
		if e = m.cache[tok]; e != nil {
			m.obsHits.Inc()
		} else {
			e = new(tokenEntry)
			m.cache[tok] = e
			m.obsMisses.Inc()
			m.obsSize.Set(float64(len(m.cache)))
		}
		m.mu.Unlock()
	}
	e.once.Do(func() { m.fill(e, tok) })
	return e
}

// fill computes tok's entry; it runs under the entry's once.
func (m *Model) fill(e *tokenEntry, tok string) {
	e.vec, e.w = m.computeTokenVec(tok), 1
	if m.idf != nil {
		e.w = float32(m.idf(tok))
	}
}

func (m *Model) computeTokenVec(tok string) []float32 {
	if text.IsNumeric(tok) {
		return m.numericVec(tok)
	}
	stem := text.Stem(tok)
	out := make([]float32, m.dim)
	tmp := make([]float32, m.dim)

	lexicalWeight := float32(1)
	if m.lex != nil {
		if concept, ok := m.lex.Concept(stem); ok {
			// The concept component itself mixes a parent (topic) part and
			// a concept-unique part when a hierarchy is present, so sibling
			// concepts share measurable similarity (≈ 0.3) the way related
			// terms do in a pretrained encoder's space.
			gaussianVec(tmp, m.seed, fmt.Sprintf("\x01concept:%d", concept))
			if parent, hasParent := m.lex.Parent(concept); hasParent {
				const parentWeight = 0.55
				vec.Scale(tmp, sqrt1m(parentWeight))
				par := make([]float32, m.dim)
				gaussianVec(par, m.seed, fmt.Sprintf("\x01concept:%d", parent))
				vec.AddScaled(tmp, parentWeight, par)
				vec.Normalize(tmp)
			}
			vec.AddScaled(out, m.conceptWeight, tmp)
			lexicalWeight = sqrt1m(m.conceptWeight)
		}
	}
	// Term-identity component: keyed by the stem so that inflected forms of
	// one word ("vaccine"/"vaccines") coincide.
	gaussianVec(tmp, m.seed, "\x02term:"+stem)
	vec.AddScaled(out, lexicalWeight*0.8, tmp)
	// Character-n-gram component: spelling variants and OOV morphology land
	// near each other.
	grams := text.CharNGrams(stem, m.ngramN)
	sub := make([]float32, m.dim)
	for _, g := range grams {
		gaussianVec(tmp, m.seed, "\x03gram:"+g)
		vec.Add(sub, tmp)
	}
	vec.Normalize(sub)
	vec.AddScaled(out, lexicalWeight*0.2, sub)
	return vec.Normalize(out)
}

// numericVec embeds a digit string so that cosine similarity degrades
// gracefully with numeric distance: all numbers share a base component,
// numbers with the same digit count share a magnitude component, numbers
// with the same leading digits share a prefix component, and the exact
// value contributes the remainder. "2020" vs "2021" ≈ 0.85; "2020" vs "37"
// ≈ 0.3. This reproduces the paper's observation that the transformer
// "can distinguish the numerical values according to the context".
func (m *Model) numericVec(tok string) []float32 {
	out := make([]float32, m.dim)
	tmp := make([]float32, m.dim)
	gaussianVec(tmp, m.seed, "\x04num")
	vec.AddScaled(out, 0.30, tmp)
	gaussianVec(tmp, m.seed, fmt.Sprintf("\x04len:%d", len(tok)))
	vec.AddScaled(out, 0.30, tmp)
	prefix := tok
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	gaussianVec(tmp, m.seed, fmt.Sprintf("\x04prefix:%d:%s", len(tok), prefix))
	vec.AddScaled(out, 0.25, tmp)
	gaussianVec(tmp, m.seed, "\x04exact:"+tok)
	vec.AddScaled(out, 0.15, tmp)
	return vec.Normalize(out)
}

// sqrt1m returns sqrt(1-w²) clamped at 0, the weight that keeps a two-part
// mixture of orthonormal components at unit norm.
func sqrt1m(w float32) float32 {
	r := 1 - w*w
	if r <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(r)))
}

// EncodeAll embeds every string in ss concurrently and returns the vectors
// in input order. Parallelism defaults to GOMAXPROCS.
func (m *Model) EncodeAll(ss []string) [][]float32 {
	_, out := m.EncodeAllInto(nil, nil, ss)
	return out
}

// EncodeAllInto is EncodeAll into reused storage: the vectors are views of
// buf's backing array, listed in out's, each grown when too small. It
// returns both for the caller to reuse; a caller that does keeps no vector
// past its next call.
func (m *Model) EncodeAllInto(buf []float32, out [][]float32, ss []string) ([]float32, [][]float32) {
	n := len(ss) * m.dim
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	out = slices.Grow(out[:0], len(ss))[:len(ss)]
	for i := range out {
		out[i] = buf[i*m.dim : (i+1)*m.dim : (i+1)*m.dim]
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ss) {
		workers = len(ss)
	}
	if workers <= 1 {
		for i, s := range ss {
			m.encodeInto(out[i], s)
		}
		return buf, out
	}
	var wg sync.WaitGroup
	next := make(chan int, len(ss))
	for i := range ss {
		next <- i
	}
	close(next)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				m.encodeInto(out[i], ss[i])
			}
		}()
	}
	wg.Wait()
	return buf, out
}

// Truncating wraps a Model with a hard token budget, modelling encoders
// whose input window truncates long content (BERT's 512-token limit in the
// AdH baseline, GPT-style context limits in TML). Tokens beyond MaxTokens
// are silently dropped before encoding — which is precisely the failure
// mode the paper attributes to those baselines.
type Truncating struct {
	M         *Model
	MaxTokens int
}

// Dim returns the wrapped model's dimensionality.
func (t Truncating) Dim() int { return t.M.Dim() }

// Encode embeds at most MaxTokens leading tokens of s.
func (t Truncating) Encode(s string) []float32 {
	toks := text.Tokenize(s)
	if t.MaxTokens > 0 && len(toks) > t.MaxTokens {
		toks = toks[:t.MaxTokens]
	}
	return t.M.EncodeTokens(toks)
}
