package main

import (
	"fmt"
	"math"
	"sort"

	"semdisco"
	"semdisco/internal/core"
	"semdisco/internal/eval"
	"semdisco/internal/httpapi"
)

// tally counts checked operations and remembers why any failed.
type tally struct {
	attempted, failed int
	errs              []string
}

// expect records one checked outcome.
func (t *tally) expect(ok bool, format string, args ...interface{}) {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, fmt.Sprintf(format, args...))
		}
	}
}

// add folds a timed phase's counts in.
func (t *tally) add(phase string, c counts) {
	t.attempted += c.sent
	t.failed += c.failed()
	if c.failed() > 0 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %d of %d operations did not return the expected status", phase, c.failed(), c.sent))
	}
}

// sameAnswer reports whether an HTTP answer equals a reference ranking bit
// for bit: same IDs in the same order with identical float32 scores.
func sameAnswer(got []httpapi.MatchJSON, want []core.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].RelationID != want[i].RelationID ||
			math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			return false
		}
	}
	return true
}

func toCore(ms []httpapi.MatchJSON) []core.Match {
	out := make([]core.Match, len(ms))
	for i, m := range ms {
		out[i] = core.Match{RelationID: m.RelationID, Score: m.Score}
	}
	return out
}

// engineEncoder lets the oracle embed values with the engine's own encoder
// (same lexicon, same IDF), through the public Embed/Dim surface.
type engineEncoder struct{ eng *semdisco.Engine }

func (e engineEncoder) Dim() int                  { return e.eng.Dim() }
func (e engineEncoder) Encode(s string) []float32 { return e.eng.Embed(s) }

// oracle returns the trivially correct reference ranking for the workloads
// that promise exactness: a fresh core.ExS over the federation for
// exs-scan, a single ExS engine over the whole federation for coord-fanout.
// The index workloads have none (their quality is ndcg_at_10 and the
// traced overlap).
func (s *system) oracle(p plan, seed int64) (func(q string) ([]core.Match, error), error) {
	fed := s.in.corpus.Federation
	switch p.Method {
	case "ExS":
		exs := core.NewExS(core.EmbedFederation(fed, engineEncoder{s.eng}), core.ExSOptions{})
		return func(q string) ([]core.Match, error) { return exs.Search(q, topK) }, nil
	case "coord":
		eng, err := semdisco.Open(fed, engineConfig(semdisco.ExS, s.in, seed))
		if err != nil {
			return nil, err
		}
		return func(q string) ([]core.Match, error) { return eng.Search(q, topK) }, nil
	}
	return nil, nil
}

// checkBefore runs on the untouched index, immediately before the mixed
// phase: ranking quality, single/batch agreement and oracle equality. It
// returns ndcg_at_10.
func checkBefore(c *client, s *system, p plan, seed int64, t *tally) float64 {
	in := s.in
	texts := make([]string, len(in.quality))
	singles := make([][]httpapi.MatchJSON, len(in.quality))
	var ndcg float64
	for i, q := range in.quality {
		texts[i] = q.Text
		resp, err := c.search(searchBody(q.Text))
		t.expect(err == nil, "quality query %s: %v", q.ID, err)
		if err != nil {
			continue
		}
		singles[i] = resp.Matches
		ndcg += eval.NDCG(in.corpus.Qrels[q.ID], ids(resp.Matches), topK)
	}
	ndcg /= float64(len(in.quality))

	// The same judged queries as one batch must give the same answers, and
	// so the same NDCG.
	batch, err := c.searchBatch(batchBody(texts))
	t.expect(err == nil && len(batch.Results) == len(texts), "quality batch: %v", err)
	if err == nil && len(batch.Results) == len(texts) {
		var batchNDCG float64
		for i, q := range in.quality {
			t.expect(sameAnswer(batch.Results[i].Matches, toCore(singles[i])), "query %s: batch answer differs from single answer", q.ID)
			batchNDCG += eval.NDCG(in.corpus.Qrels[q.ID], ids(batch.Results[i].Matches), topK)
		}
		batchNDCG /= float64(len(in.quality))
		t.expect(batchNDCG == ndcg, "ndcg_at_10 does not repeat: %v single, %v batch", ndcg, batchNDCG)
	}

	ref, err := s.oracle(p, seed)
	t.expect(err == nil, "building oracle: %v", err)
	if ref != nil {
		for i, q := range texts {
			want, err := ref(q)
			t.expect(err == nil && sameAnswer(singles[i], want), "query %s: answer differs from the exhaustive oracle (%v)", in.quality[i].ID, err)
		}
		n := oracleQueries
		if n > len(in.pool) {
			n = len(in.pool)
		}
		for i := 0; i < n; i++ {
			resp, err := c.search(in.searchBody[i])
			if err != nil {
				t.expect(false, "pool query %d: %v", i, err)
				continue
			}
			want, err := ref(in.pool[i])
			t.expect(err == nil && sameAnswer(resp.Matches, want), "pool query %d: answer differs from the exhaustive oracle (%v)", i, err)
		}
	}
	return ndcg
}

// checkAfter runs immediately after the mixed phase: deleted relations
// never surface, every added or updated relation is found by its marker
// token, and the live relation count is what the write list implies.
func checkAfter(c *client, s *system, t *tally) {
	in := s.in
	dead := make(map[string]bool, len(in.deleted))
	for _, id := range in.deleted {
		dead[id] = true
	}
	noDead := func(what string, ms []httpapi.MatchJSON) {
		found := ""
		for _, m := range ms {
			if dead[m.RelationID] {
				found = m.RelationID
			}
		}
		t.expect(found == "", "%s: deleted relation %s in the answer", what, found)
	}
	for _, q := range in.quality {
		resp, err := c.search(searchBody(q.Text))
		t.expect(err == nil, "quality query %s after writes: %v", q.ID, err)
		if err == nil {
			noDead("query "+q.ID, resp.Matches)
		}
	}
	written := make([]string, 0, len(in.marker))
	for id := range in.marker {
		written = append(written, id)
	}
	sort.Strings(written)
	for _, id := range written {
		resp, err := c.search(searchBody(in.marker[id]))
		t.expect(err == nil, "marker query for %s: %v", id, err)
		if err != nil {
			continue
		}
		noDead("marker query for "+id, resp.Matches)
		found := false
		for _, m := range resp.Matches {
			found = found || m.RelationID == id
		}
		t.expect(found, "written relation %s is not in the top %d for its own marker", id, topK)
	}

	each := len(in.writes) / 3
	want := in.corpus.Federation.Len() + each - len(in.deleted)
	got := 0
	if s.eng != nil {
		got = s.eng.NumRelations()
	} else {
		got = s.coord.NumRelations()
	}
	t.expect(got == want, "live relations after writes: got %d, want %d", got, want)
}

func ids(ms []httpapi.MatchJSON) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.RelationID
	}
	return out
}
