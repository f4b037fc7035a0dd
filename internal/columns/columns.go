// Package columns implements column-level dataset discovery — finding
// unionable and joinable columns across a federation — the companion
// problem the paper's related work surveys (TUS/Santos for unionability,
// Josie/DeepJoin for joinability) and a natural extension of its
// value-level embeddings: a column's semantic type is the weighted mean of
// its value embeddings, so unionability is embedding similarity, while
// joinability combines semantic similarity with exact value containment.
package columns

import (
	"fmt"
	"sort"
	"strings"

	"semdisco/internal/embed"
	"semdisco/internal/table"
	"semdisco/internal/text"
	"semdisco/internal/vec"
	"semdisco/internal/vectordb"
)

// ColumnRef identifies a column within a federation.
type ColumnRef struct {
	RelationID string
	Column     string
}

func (c ColumnRef) String() string { return c.RelationID + "." + c.Column }

// Profile is the discovery summary of one column.
type Profile struct {
	Ref ColumnRef
	// Embedding is the unit-norm semantic type vector: the multiplicity-
	// weighted mean of the distinct values' embeddings, mixed with the
	// header name's embedding.
	Embedding []float32
	// Distinct holds the normalized distinct values (lowercased, trimmed).
	Distinct map[string]struct{}
	// NumericFraction is the share of numeric values.
	NumericFraction float64
	// Rows is the column length including duplicates.
	Rows int
}

// newProfile summarizes one column.
func newProfile(enc embed.Encoder, relID, name string, values []string) *Profile {
	p := &Profile{
		Ref:      ColumnRef{RelationID: relID, Column: name},
		Distinct: make(map[string]struct{}),
		Rows:     len(values),
	}
	counts := make(map[string]float32)
	numeric := 0
	for _, v := range values {
		norm := normalizeValue(v)
		if norm == "" {
			continue
		}
		p.Distinct[norm] = struct{}{}
		counts[v]++
		if isNumericValue(v) {
			numeric++
		}
	}
	if len(values) > 0 {
		p.NumericFraction = float64(numeric) / float64(len(values))
	}
	// Weighted mean of value embeddings (70%) + header embedding (30%):
	// the header often names the semantic type directly, but data wins
	// when they disagree.
	emb := make([]float32, enc.Dim())
	var total float32
	for v, c := range counts {
		vec.AddScaled(emb, c, enc.Encode(v))
		total += c
	}
	if total > 0 {
		vec.Scale(emb, 0.7/total)
		vec.AddScaled(emb, 0.3, enc.Encode(name))
	} else {
		vec.AddScaled(emb, 1, enc.Encode(name))
	}
	p.Embedding = vec.Normalize(emb)
	return p
}

// Match is one column-discovery result.
type Match struct {
	Ref ColumnRef
	// Score is the method-specific relatedness in [0,1]-ish range.
	Score float64
	// Containment is |query ∩ candidate| / |query| over distinct values;
	// only computed for joinability searches.
	Containment float64
}

// Index holds the column profiles of a federation behind a vector index.
type Index struct {
	enc      embed.Encoder
	profiles []*Profile
	byRef    map[ColumnRef]*Profile
	coll     *vectordb.Collection
}

// BuildIndex profiles every column of every relation.
func BuildIndex(fed *table.Federation, enc embed.Encoder, seed int64) (*Index, error) {
	coll, err := vectordb.NewCollection(vectordb.CollectionConfig{
		Dim:    enc.Dim(),
		Metric: vectordb.Cosine,
		Seed:   seed,
	})
	if err != nil {
		return nil, fmt.Errorf("columns: %w", err)
	}
	ix := &Index{enc: enc, byRef: make(map[ColumnRef]*Profile), coll: coll}
	for _, r := range fed.Relations() {
		for _, col := range r.Columns {
			values, _ := r.Column(col)
			p := newProfile(enc, r.ID, col, values)
			tag := int32(len(ix.profiles))
			ix.profiles = append(ix.profiles, p)
			ix.byRef[p.Ref] = p
			if _, err := coll.Insert(p.Embedding, tag); err != nil {
				return nil, fmt.Errorf("columns: %w", err)
			}
		}
	}
	return ix, nil
}

// NumColumns returns the number of profiled columns.
func (ix *Index) NumColumns() int { return len(ix.profiles) }

// Profile returns the stored profile of a column.
func (ix *Index) Profile(ref ColumnRef) (*Profile, bool) {
	p, ok := ix.byRef[ref]
	return p, ok
}

// Unionable returns the k columns most unionable with the query column —
// columns holding values of the same semantic type — ranked by embedding
// similarity. Columns of the query's own relation are excluded (a table is
// trivially unionable with itself).
func (ix *Index) Unionable(query *Profile, k int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	hits, err := ix.shortlist(query, 4*k+8)
	if err != nil {
		return nil, err
	}
	out := make([]Match, 0, k)
	for _, h := range hits {
		if h.p.Ref.RelationID == query.Ref.RelationID {
			continue
		}
		out = append(out, Match{Ref: h.p.Ref, Score: float64(h.score)})
		if len(out) == k {
			break
		}
	}
	return out, nil
}

// Joinable returns the k best join candidates for the query column:
// candidates are shortlisted by semantic similarity, then scored by
// 0.5·containment + 0.5·cosine, so exact key overlap dominates when
// present (Josie's signal) and semantics break ties across verbalizations
// (DeepJoin's signal).
func (ix *Index) Joinable(query *Profile, k int) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	hits, err := ix.shortlist(query, 8*k+16)
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, h := range hits {
		if h.p.Ref.RelationID == query.Ref.RelationID {
			continue
		}
		cont := containment(query.Distinct, h.p.Distinct)
		out = append(out, Match{
			Ref:         h.p.Ref,
			Score:       0.5*cont + 0.5*float64(h.score),
			Containment: cont,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// ProfileColumn builds a query profile for an ad-hoc column that is not in
// the index (e.g. from a user's seed table).
func (ix *Index) ProfileColumn(relID, name string, values []string) *Profile {
	return newProfile(ix.enc, relID, name, values)
}

type scoredProfile struct {
	p     *Profile
	score float32
}

func (ix *Index) shortlist(query *Profile, n int) ([]scoredProfile, error) {
	hits, err := ix.coll.Search(query.Embedding, n, 2*n, nil)
	if err != nil {
		return nil, err
	}
	out := make([]scoredProfile, 0, len(hits))
	for _, h := range hits { // a hit's tag is its profile's index
		out = append(out, scoredProfile{ix.profiles[h.Tag], h.Score})
	}
	return out, nil
}

// containment returns |a ∩ b| / |a|.
func containment(a, b map[string]struct{}) float64 {
	if len(a) == 0 {
		return 0
	}
	inter := 0
	for v := range a {
		if _, ok := b[v]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a))
}

func normalizeValue(v string) string {
	return strings.ToLower(strings.TrimSpace(v))
}

func isNumericValue(v string) bool {
	toks := text.Tokenize(v)
	if len(toks) == 0 {
		return false
	}
	for _, t := range toks {
		if !text.IsNumeric(t) {
			return false
		}
	}
	return true
}
