package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"semdisco/internal/obs"
	"semdisco/internal/segment"
	"semdisco/internal/table"
	"semdisco/internal/vec"
)

// plantedEncoder embeds a cell text as the vector a test planted for it (a
// zero vector for any other text), so relations with chosen vectors and
// weights go through the real EmbedFederation / AddRelation paths.
type plantedEncoder struct {
	dim  int
	vecs map[string][]float32
}

func (p *plantedEncoder) Dim() int { return p.dim }

func (p *plantedEncoder) Encode(s string) []float32 {
	out := make([]float32, p.dim)
	copy(out, p.vecs[s])
	return out
}

// relation plants vecs as the cell values of a one-column relation, value i
// repeated mult[i] times (its weight; 1 when mult is nil).
func (p *plantedEncoder) relation(id, source string, vecs [][]float32, mult []int) *table.Relation {
	r := &table.Relation{ID: id, Source: source, Columns: []string{"v"}}
	for i, v := range vecs {
		text := fmt.Sprintf("%s/%d", id, i)
		p.vecs[text] = v
		n := 1
		if mult != nil {
			n = mult[i]
		}
		for ; n > 0; n-- {
			r.Rows = append(r.Rows, []string{text})
		}
	}
	return r
}

func gaussian(rng *rand.Rand, dim int, scale float64) []float32 {
	v := make([]float32, dim)
	for j := range v {
		v[j] = float32(rng.NormFloat64() * scale)
	}
	return v
}

// boundCase builds a one-relation Embedded of m values and a query from the
// case's parameters: components scaled by 2^vExp and 2^qExp, integer
// weights in [1, wMax], every other value pulled towards the query so the
// similarities do not cancel.
func boundCase(dim, m int, seed int64, qExp, vExp, wMax int) (*Embedded, []float32) {
	rng := rand.New(rand.NewSource(seed))
	q := gaussian(rng, dim, math.Ldexp(1/math.Sqrt(float64(dim)), qExp))
	vals := make([]valueRef, m)
	idxs := make([]int32, m)
	var total float32
	for i := range vals {
		v := gaussian(rng, dim, math.Ldexp((0.5+1.5*rng.Float64())/math.Sqrt(float64(dim)), vExp))
		if i%2 == 0 {
			pull := float32(math.Ldexp(rng.Float64(), vExp-qExp))
			for j := range v {
				v[j] += pull * q[j]
			}
		}
		vals[i] = valueRef{Weight: float32(1 + rng.Intn(wMax)), Vec: v}
		idxs[i] = int32(i)
		total += vals[i].Weight
	}
	emb := &Embedded{
		Enc:         &plantedEncoder{dim: dim},
		RelIDs:      []string{"r"},
		Values:      vals,
		PerRel:      [][]int32{idxs},
		TotalWeight: []float32{total},
		Centroids:   make([]uint16, dim),
	}
	emb.CentroidErr = []float64{relationCentroid(vals, total, emb.Centroids, nil)}
	return emb, q
}

// centroidBoundUse checks the inequality filterVerify prunes by — the
// centroid score, from the filter's own kernel, within the margin of the
// value-by-value score — and returns the share of the margin the case
// used. A case the search would not filter (query norm over the limit)
// uses none; one with an infinite error factor must have a zero row and be
// verified: the search scans all its values and returns the exact score.
func centroidBoundUse(t *testing.T, emb *Embedded, q []float32) float64 {
	t.Helper()
	s := NewExS(emb, ExSOptions{})
	var sq float64
	for _, x := range q {
		sq += float64(x) * float64(x)
	}
	norm := math.Sqrt(sq)
	bound := margin(norm, emb.CentroidErr[0], underflowMargin(emb.Enc.Dim()))
	exact := s.scoreRelation(q, 0)
	if math.IsInf(bound, 1) {
		cost := new(obs.Cost)
		got, err := s.SearchEncoded(obs.ContextWithCost(context.Background(), cost), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range emb.Centroids {
			if h != 0 {
				t.Fatalf("dim %d: infinite error factor beside a nonzero row", emb.Enc.Dim())
			}
		}
		if scanned := cost.Report().ValuesScanned; scanned != int64(1+len(emb.Values)) || len(got) != 1 && exact >= 0 ||
			len(got) == 1 && math.Float32bits(got[0].Score) != math.Float32bits(exact) {
			t.Fatalf("dim %d: infinite error factor, but %d vectors scanned (want %d) and matches %v (exact score %g)",
				emb.Enc.Dim(), scanned, 1+len(emb.Values), got, exact)
		}
		return 0
	}
	if !(norm < maxQueryNorm) {
		return 0
	}
	var approx [1]float32
	vec.DotHalf([][]float32{q}, emb.Centroids, approx[:], 1)
	diff := math.Abs(float64(approx[0]) - float64(exact))
	if !(diff <= bound) {
		t.Fatalf("dim %d, %d values, ‖q‖ %g: centroid score %g, exact %g: |diff| %g over the margin %g",
			emb.Enc.Dim(), len(emb.Values), norm, approx[0], exact, diff, bound)
	}
	return diff / bound
}

// TestCentroidBoundHolds is the property the whole filter rests on, over
// the ranges a deployment can see and beyond: dims 8–768, 1–2,000 values
// per relation, weights up to 10⁴, value norms 2⁻⁷–2⁷ and ‖q‖ 10⁻³–10³.
func TestCentroidBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	trials := 400
	if testing.Short() {
		trials = 60
	}
	var worst float64
	for i := 0; i < trials; i++ {
		dim := 8 + rng.Intn(761)
		m := 1 + int(math.Pow(2000, rng.Float64())) // log-uniform: small relations are the common case
		if m > 2000 {
			m = 2000
		}
		emb, q := boundCase(dim, m, rng.Int63(), rng.Intn(21)-10, rng.Intn(15)-7, 1+rng.Intn(10000))
		worst = math.Max(worst, centroidBoundUse(t, emb, q))
	}
	t.Logf("largest |centroid − exact| / margin over %d cases: %.3f", trials, worst)
	if worst == 0 {
		t.Fatal("no case exercised the bound")
	}
	// Where the relative bound alone is not enough, or nothing is: products
	// that underflow, centroid entries that round in the subnormal range
	// under a large query, magnitudes just inside the overflow limits, and
	// past either of them.
	for _, edge := range []struct{ dim, m, qExp, vExp int }{
		{256, 26, -72, -70}, {256, 26, -60, -80}, {8, 5, 30, -140}, {8, 5, 60, -146},
		{256, 7, 62, 50}, {64, 3, 61, 61}, {256, 26, 70, 0}, {256, 26, 0, 70}, {64, 3, 127, 127},
	} {
		emb, q := boundCase(edge.dim, edge.m, 13, edge.qExp, edge.vExp, 3)
		centroidBoundUse(t, emb, q)
	}
	// Two values of binary16 subnormals whose numerators (of 2⁻²⁴) differ
	// by even steps average to a binary16 number, so ‖h − ĉ‖ = 0; a query
	// near 2⁻¹²⁵ then puts the products of both paths, which differ, deep in
	// float32's subnormal range, where only the underflow term covers them.
	for _, qExp := range []int{-122, -123, -124} {
		emb, q := boundCase(256, 2, 13, qExp, -16, 1)
		v0, v1 := emb.Values[0].Vec, emb.Values[1].Vec
		for j := range v0 {
			v0[j] = vec.HalfToFloat32(vec.ToHalf(float64(v0[j])))
			v1[j] = v0[j] + float32(j%7-3)*0x1p-23
		}
		emb.CentroidErr[0] = relationCentroid(emb.Values, emb.TotalWeight[0], emb.Centroids, nil)
		if use := centroidBoundUse(t, emb, q); use == 0 {
			t.Fatalf("‖q‖ 2^%d: exact and centroid scores agree", qExp)
		}
	}
	// Centroid entries past binary16's range: the factor is +Inf, the row
	// zero and the relation verified (centroidBoundUse checks the last two).
	for _, edge := range []struct{ dim, m, qExp, vExp int }{
		{64, 3, 0, 20}, {256, 26, -20, 24}, {8, 5, 10, 19},
	} {
		emb, q := boundCase(edge.dim, edge.m, 13, edge.qExp, edge.vExp, 3)
		if !math.IsInf(emb.CentroidErr[0], 1) {
			t.Fatalf("%+v: no entry overflows binary16: error factor %g", edge, emb.CentroidErr[0])
		}
		centroidBoundUse(t, emb, q)
	}
	// Rows of binary16 subnormals (below 2⁻¹⁴, multiples of 2⁻²⁴), where
	// rounding keeps a few bits or none, under small and large queries.
	for _, edge := range []struct{ dim, m, qExp, vExp int }{
		{64, 3, 0, -20}, {256, 26, 20, -18}, {8, 5, -10, -17}, {768, 40, 40, -16},
	} {
		emb, q := boundCase(edge.dim, edge.m, 13, edge.qExp, edge.vExp, 3)
		subnormals := 0
		for _, h := range emb.Centroids {
			if h&0x7c00 != 0 {
				t.Fatalf("%+v: row entry %#04x is not a binary16 subnormal", edge, h)
			}
			if h&0x3ff != 0 {
				subnormals++
			}
		}
		if subnormals == 0 {
			t.Fatalf("%+v: the row is all zeros", edge)
		}
		centroidBoundUse(t, emb, q)
	}
}

// FuzzCentroidBound drives the same property from fuzzed parameters,
// exponents out to where float32 underflows and overflows included, and
// binary16 rows that overflow or are all subnormals (seed-half-*).
func FuzzCentroidBound(f *testing.F) {
	f.Add(uint16(256), uint16(26), int64(7), int8(0), int8(0), uint16(3))
	f.Fuzz(func(t *testing.T, dim, m uint16, seed int64, qExp, vExp int8, wMax uint16) {
		emb, q := boundCase(1+int(dim)%768, 1+int(m)%2000, seed, int(qExp), int(vExp), 1+int(wMax)%10000)
		centroidBoundUse(t, emb, q)
	})
}

// tieCorpus is a planted federation whose ranking for q has, in its middle,
// a group of relations the centroid filter cannot order: exact scores that
// are equal, one ulp above and one ulp below, with at least one pair the
// centroid scores order the other way round. bg relations score clearly
// above and below the group; one relation is empty and scores 0.
type tieCorpus struct {
	enc  *plantedEncoder
	rels []*table.Relation
	q    []float32
	// first and size locate the group in the exact ranking; tied is the
	// exact score its equal members share.
	first, size int
	tied        float32
}

func newTieCorpus(t *testing.T) *tieCorpus {
	t.Helper()
	const dim, variants = 64, 600
	rng := rand.New(rand.NewSource(5))
	enc := &plantedEncoder{dim: dim, vecs: make(map[string][]float32)}
	q := vec.Normalize(gaussian(rng, dim, 1))
	towards := func(sim float64) []float32 {
		v := gaussian(rng, dim, 0.3/math.Sqrt(dim))
		for j := range v {
			v[j] += float32(sim) * q[j]
		}
		return v
	}

	// Variants of one three-value relation, each component jittered by a few
	// parts in 10⁶: their exact scores scatter over a handful of ulps. Each
	// value also moves by ~10⁻² orthogonally to q, which leaves its
	// similarity alone but not its binary16 centroid row, so the variants'
	// centroid scores err differently.
	base := [][]float32{towards(0.5), towards(0.45), towards(0.55)}
	fed := table.NewFederation()
	for i := 0; i < variants; i++ {
		vs := make([][]float32, len(base))
		for a, b := range base {
			off := gaussian(rng, dim, 0.01/math.Sqrt(dim))
			along := vec.Dot(off, q)
			vs[a] = make([]float32, dim)
			for j := range b {
				vs[a][j] = b[j]*float32(1+3e-6*rng.NormFloat64()) + (off[j] - along*q[j])
			}
		}
		fed.Add(enc.relation(fmt.Sprintf("var-%03d", i), "ties", vs, []int{2, 1, 3}))
	}
	emb := EmbedFederation(fed, enc)
	exact := make(map[float32][]int) // exact score -> the variants scoring it
	exactOf := make([]float32, variants)
	approx := make([]float32, variants)
	for _, m := range oracleRank(emb, q, variants, negInf) {
		rel, _ := emb.RelIndex(m.RelationID)
		exact[m.Score] = append(exact[m.Score], rel)
		exactOf[rel] = m.Score
		vec.DotHalf([][]float32{q}, emb.Centroids[rel*dim:(rel+1)*dim], approx[rel:rel+1], 1)
	}
	var tied float32
	for score, rels := range exact {
		up, down := exact[math.Nextafter32(score, 2)], exact[math.Nextafter32(score, -2)]
		larger := len(rels) > len(exact[tied]) || len(rels) == len(exact[tied]) && score > tied
		if len(rels) >= 3 && len(up) >= 2 && len(down) >= 2 && larger {
			tied = score
		}
	}
	if tied == 0 {
		t.Fatalf("no exact score shared by 3 variants with 2 more an ulp either side (%d distinct scores)", len(exact))
	}
	up, down := exact[math.Nextafter32(tied, 2)], exact[math.Nextafter32(tied, -2)]
	// Order each pair so the centroid scores disagree with the exact order
	// wherever the variants allow it: the lower exact score gets the variant
	// with the highest centroid score, the upper the lowest.
	byApprox := func(rels []int, highest bool) []int {
		out := append([]int(nil), rels...)
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if (approx[out[j]] > approx[out[i]]) == highest {
					out[i], out[j] = out[j], out[i]
				}
			}
		}
		return out
	}
	group := append(append(byApprox(down, true)[:2], byApprox(exact[tied], true)[:3]...), byApprox(up, false)[:2]...)
	inverted := false
	for _, a := range group {
		for _, b := range group {
			inverted = inverted || approx[a] > approx[b] && exactOf[a] < exactOf[b]
		}
	}
	if !inverted {
		t.Fatal("no pair of the group is ordered one way by its centroids and the other by its exact scores")
	}

	tc := &tieCorpus{enc: enc, q: q, size: len(group), tied: tied}
	variantsOf := fed.Relations()
	add := func(r *table.Relation) { tc.rels = append(tc.rels, r) }
	// Slot order interleaves the group with the background, lower exact
	// scores first, so the slot tie-break and the score order disagree too.
	for i := 0; i < 24; i++ {
		sim := 0.9 - 0.02*float64(i) // 12 above the group …
		if i >= 12 {
			sim = 0.3 - 0.04*float64(i-12) // … and 12 below, the last few negative
		}
		add(enc.relation(fmt.Sprintf("bg-%02d", i), fmt.Sprintf("src-%d", i%3),
			[][]float32{towards(sim), towards(sim), towards(sim)}, []int{1, 4, 2}))
		if i < len(group) {
			add(variantsOf[group[i]])
		}
		if i == 5 {
			add(&table.Relation{ID: "empty", Source: "src-0", Columns: []string{"v"}})
		}
	}
	tc.first = 12
	return tc
}

func (tc *tieCorpus) federation(rels []*table.Relation) *table.Federation {
	fed := table.NewFederation()
	for _, r := range rels {
		fed.Add(r)
	}
	return fed
}

// queries is the planted query followed by four near copies of it — other
// rounding, other ties — so a batch spans a 4-query block and a remainder.
func (tc *tieCorpus) queries() [][]float32 {
	rng := rand.New(rand.NewSource(9))
	qs := [][]float32{tc.q}
	for i := 0; i < 4; i++ {
		q := vec.Clone(tc.q)
		for j := range q {
			q[j] *= float32(1 + 1e-6*rng.NormFloat64())
		}
		qs = append(qs, q)
	}
	return qs
}

type filteredBatchSearcher interface {
	SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error)
	BatchSearcher
}

// assertRanksLikeOracle compares s with the oracle's ranking of ref — the
// same live corpus, embedded from scratch — for every k from 1 past the
// corpus size, single and (without an allow filter) batched, bit for bit.
func assertRanksLikeOracle(t *testing.T, label string, s filteredBatchSearcher, ref *Embedded, qs [][]float32, h float32, allow func(string) bool) {
	t.Helper()
	ctx := context.Background()
	n := ref.NumRelations()
	for qi, q := range qs {
		full := oracleRank(ref, q, n, h)
		if allow != nil {
			kept := full[:0:0]
			for _, m := range full {
				if allow(m.RelationID) {
					kept = append(kept, m)
				}
			}
			full = kept
		}
		for k := 1; k <= n+2; k++ {
			want := full[:min(k, len(full))]
			got, err := s.SearchFiltered(ctx, q, k, allow)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, append([]Match{}, want...)) {
				t.Fatalf("%s: query %d k=%d:\n got: %v\nwant: %v", label, qi, k, got, want)
			}
		}
	}
	if allow != nil {
		return
	}
	for k := 1; k <= n+2; k += 3 {
		ks := make([]int, len(qs))
		for i := range ks {
			ks[i] = k + i
		}
		batch, err := s.SearchEncodedBatch(ctx, qs, ks, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if want := oracleRank(ref, q, ks[i], h); !reflect.DeepEqual(batch[i], want) {
				t.Fatalf("%s: batched query %d k=%d:\n got: %v\nwant: %v", label, i, ks[i], batch[i], want)
			}
		}
	}
}

// forEachHalfBody runs f once per body of vec.DotHalf this build has —
// the assembly one where the CPU has it, and the pure-Go one — so the
// rankings that rest on the centroid filter are pinned on both in a plain
// go test.
func forEachHalfBody(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	bodies := []bool{true}
	if vec.HalfAsm() {
		bodies = []bool{false, true}
	}
	for _, goBody := range bodies {
		name := "asm"
		if goBody {
			name = "go"
		}
		t.Run(name, func(t *testing.T) {
			vec.SetHalfGoBody(goBody)
			defer vec.SetHalfGoBody(false)
			f(t)
		})
	}
}

// TestFilterVerifyRanksTiesLikeOracle is the adversarial pin of the filter's
// margin: with exact scores that tie to the last ulp around every k-th
// place, and centroid scores that order them differently, the ranking still
// equals the oracle's — under tombstones, a source filter, a threshold
// inside the tied group and fewer than k live relations — on both
// centroid kernel bodies.
func TestFilterVerifyRanksTiesLikeOracle(t *testing.T) {
	forEachHalfBody(t, testFilterVerifyRanksTiesLikeOracle)
}

func testFilterVerifyRanksTiesLikeOracle(t *testing.T) {
	tc := newTieCorpus(t)
	qs := tc.queries()
	emb := EmbedFederation(tc.federation(tc.rels), tc.enc)

	// The plant is what it claims: the group sits at ranks first..first+size
	// of q's exact ranking, equal scores inside it.
	full := oracleRank(emb, tc.q, emb.NumRelations(), negInf)
	equal := 0
	for _, m := range full[tc.first : tc.first+tc.size] {
		if m.RelationID[:3] != "var" {
			t.Fatalf("rank %d..%d holds %v, want the planted group", tc.first, tc.first+tc.size, full[tc.first:tc.first+tc.size])
		}
		if m.Score == tc.tied {
			equal++
		}
	}
	if equal != 3 {
		t.Fatalf("%d relations share the tied score, want 3", equal)
	}

	assertRanksLikeOracle(t, "plain", NewExS(emb, ExSOptions{}), emb, qs, 0, nil)
	assertRanksLikeOracle(t, "threshold at the tie", NewExS(emb, ExSOptions{Threshold: tc.tied}), emb, qs, tc.tied, nil)
	assertRanksLikeOracle(t, "threshold an ulp over the tie",
		NewExS(emb, ExSOptions{Threshold: math.Nextafter32(tc.tied, 2)}), emb, qs, math.Nextafter32(tc.tied, 2), nil)
	serial := false
	assertRanksLikeOracle(t, "serial", NewExS(emb, ExSOptions{Parallel: &serial}), emb, qs, 0, nil)
	assertRanksLikeOracle(t, "source filter", NewExS(emb, ExSOptions{}), emb, qs, 0,
		func(id string) bool { return id[len(id)-1]%2 == 0 })
	assertRanksLikeOracle(t, "nothing allowed", NewExS(emb, ExSOptions{}), emb, qs, 0, func(string) bool { return false })

	// Tombstone one relation of each kind: above, inside (a tied one) and
	// below the group, and the empty one.
	emb.Tombs = segment.NewTombstones()
	for _, id := range []string{"bg-03", full[tc.first+3].RelationID, "bg-20", "empty"} {
		rel, _ := emb.RelIndex(id)
		emb.Tombs.Mark(rel)
	}
	assertRanksLikeOracle(t, "tombstones", NewExS(emb, ExSOptions{}), emb, qs, 0, nil)
	assertRanksLikeOracle(t, "tombstones + source filter", NewExS(emb, ExSOptions{}), emb, qs, 0,
		func(id string) bool { return id[len(id)-1]%2 == 1 })
}

// storeEmbeddeds lists every segment's embedding, the mutable one last.
func storeEmbeddeds(st *SegmentStore) []*Embedded {
	v := st.view()
	var embs []*Embedded
	for _, sg := range v.segs {
		embs = append(embs, sg.emb)
	}
	return append(embs, v.mut.emb.Load())
}

// assertCentroidsFresh recomputes every relation's centroid row and error
// factor from its values and requires the stored ones to equal them bit for
// bit — whichever of build, add, seal, compaction or load wrote them.
func assertCentroidsFresh(t *testing.T, label string, st *SegmentStore) {
	t.Helper()
	for si, emb := range storeEmbeddeds(st) {
		dim := emb.Enc.Dim()
		if len(emb.Centroids) != emb.NumRelations()*dim || len(emb.CentroidErr) != emb.NumRelations() {
			t.Fatalf("%s: segment %d: %d centroid floats and %d error factors for %d relations of dim %d",
				label, si, len(emb.Centroids), len(emb.CentroidErr), emb.NumRelations(), dim)
		}
		for rel, idxs := range emb.PerRel {
			vals := make([]valueRef, len(idxs))
			for j, vi := range idxs {
				vals[j] = emb.Values[vi]
			}
			row := make([]uint16, dim)
			errFactor := relationCentroid(vals, emb.TotalWeight[rel], row, nil)
			if !reflect.DeepEqual(row, emb.Centroids[rel*dim:(rel+1)*dim]) || errFactor != emb.CentroidErr[rel] {
				t.Fatalf("%s: segment %d relation %s: stored centroid differs from a recomputation", label, si, emb.RelIDs[rel])
			}
		}
	}
}

// TestFilterVerifyAcrossSegments runs the tie corpus through a store's
// life — base build, adds, a seal, deletes, an update, a compaction, a save
// and a load — checking after every step that each segment's centroids are
// what a recomputation gives and that the merged ranking, single and
// batched, is the oracle's over the surviving corpus embedded from scratch.
func TestFilterVerifyAcrossSegments(t *testing.T) {
	tc := newTieCorpus(t)
	qs := tc.queries()
	byID := make(map[string]*table.Relation)
	for _, r := range tc.rels {
		byID[r.ID] = r
	}
	third := len(tc.rels) / 3
	opt := SegmentStoreOptions{
		Build:  func(e *Embedded) (EncodedSearcher, error) { return NewExS(e, ExSOptions{}), nil },
		Method: "ExS",
		Policy: segment.Policy{MaxMutableValues: 1 << 20, MaxSegments: 100, MaxDeadFraction: -1},
	}
	base := EmbedFederation(tc.federation(tc.rels[:third]), tc.enc)
	st := NewSegmentStore(base, NewExS(base, ExSOptions{}), opt)
	check := func(label string) {
		t.Helper()
		assertCentroidsFresh(t, label, st)
		var live []*table.Relation
		for _, id := range st.LiveRelations() {
			live = append(live, byID[id])
		}
		assertRanksLikeOracle(t, label, st, EmbedFederation(tc.federation(live), tc.enc), qs, 0, nil)
	}
	check("base")
	for _, r := range tc.rels[third : 2*third] {
		if err := st.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	check("adds in the mutable segment")
	st.freeze()
	if err := st.upgradeFrozen(); err != nil {
		t.Fatal(err)
	}
	for _, r := range tc.rels[2*third:] {
		if err := st.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	check("sealed segment + mutable segment")
	full := oracleRank(EmbedFederation(tc.federation(tc.rels), tc.enc), tc.q, len(tc.rels), negInf)
	for _, id := range []string{tc.rels[1].ID, tc.rels[third+1].ID, tc.rels[2*third+1].ID, full[tc.first+2].RelationID} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	check("deletes in every segment")
	// An update re-inserts: the relation moves to the end of the slot order,
	// which reorders it among its exact ties.
	if err := st.Update(byID[full[tc.first+4].RelationID]); err != nil {
		t.Fatal(err)
	}
	check("update of a tied relation")
	var blob bytes.Buffer
	if err := st.Persist(&blob); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check("compacted")
	loaded, err := RestoreSegmentStore(&blob, tc.enc, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	st = loaded
	check("saved before the compaction, loaded")
}
