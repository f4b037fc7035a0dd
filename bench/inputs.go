package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"semdisco"
	"semdisco/internal/corpus"
	"semdisco/internal/httpapi"
)

// inputs is everything a run feeds the system under test, a pure function
// of (workload scale, seed, write count): the federation, the shuffled
// query pool, the judged queries and the write list.
type inputs struct {
	corpus *corpus.Corpus
	// pool is the 1,200 query texts in seeded order; searchBody[i] is the
	// ready-to-send /v1/search body of pool[i], so the client spends the
	// same few microseconds per request on every run.
	pool       []string
	searchBody [][]byte
	// quality is the judged sample: the first qualityPerClass queries of
	// each length class.
	quality []corpus.Query
	// writes is the mixed phase's op list (add, update, delete in turn).
	writes []writeOp
	// marker maps every added or updated relation ID to the unique token
	// its marker column carries: searching the token must find the ID.
	marker map[string]string
	// deleted lists the IDs the write list removes (and never re-adds).
	deleted []string
	// extra are further fresh relations, for the ladder's direct writes.
	extra []*semdisco.Relation
}

// writeOp is one prepared write request and the status it must return.
type writeOp struct {
	Method, Path string
	Body         []byte
	Want         int
}

// newInputs generates the corpus for (scale, seed) and derives the pool,
// the judged sample and a write list of nWrites ops from the same seed.
func newInputs(scale float64, seed int64, nWrites int) (*inputs, error) {
	p := corpus.WikiTables().Scaled(scale)
	p.QueriesPerClass = queriesPerClass
	p.Seed = seed
	c := corpus.Generate(p)
	in := &inputs{corpus: c, marker: make(map[string]string)}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perClass := make(map[corpus.QueryClass]int)
	for _, q := range c.Queries {
		in.pool = append(in.pool, q.Text)
		if perClass[q.Class] < qualityPerClass {
			perClass[q.Class]++
			in.quality = append(in.quality, q)
		}
	}
	rng.Shuffle(len(in.pool), func(i, j int) { in.pool[i], in.pool[j] = in.pool[j], in.pool[i] })
	in.searchBody = make([][]byte, len(in.pool))
	for i, q := range in.pool {
		in.searchBody[i] = searchBody(q)
	}

	rels := c.Federation.Relations()
	each := nWrites / 3
	if 2*each > len(rels) {
		return nil, fmt.Errorf("bench: %d writes need %d original relations, corpus has %d", nWrites, 2*each, len(rels))
	}
	// Updates and half the deletes hit distinct original relations; the
	// other deletes remove relations added earlier in the list.
	targets := rng.Perm(len(rels))
	var added []string
	for i := 0; i < each; i++ {
		tmpl := rels[rng.Intn(len(rels))]
		add := withMarker(tmpl, fmt.Sprintf("w-add-%04d", i), newMarker(rng), false)
		in.marker[add.ID] = add.Rows[0][len(add.Columns)-1]
		added = append(added, add.ID)
		in.writes = append(in.writes, relationOp(http.MethodPost, "/v1/relations", add, http.StatusCreated))

		upd := withMarker(rels[targets[i]], rels[targets[i]].ID, newMarker(rng), true)
		in.marker[upd.ID] = upd.Rows[0][len(upd.Columns)-1]
		in.writes = append(in.writes, relationOp(http.MethodPut, "/v1/relations/"+upd.ID, upd, http.StatusOK))

		del := rels[targets[each+i]].ID
		if i%2 == 1 {
			del = added[i/2]
			delete(in.marker, del)
		}
		in.deleted = append(in.deleted, del)
		in.writes = append(in.writes, writeOp{Method: http.MethodDelete, Path: "/v1/relations/" + del, Want: http.StatusOK})
	}
	for i := 0; i < ladderWrites; i++ {
		in.extra = append(in.extra, withMarker(rels[rng.Intn(len(rels))], fmt.Sprintf("w-lad-%04d", i), newMarker(rng), false))
	}
	return in, nil
}

// searchBody marshals one /v1/search request.
func searchBody(query string) []byte {
	b, err := json.Marshal(httpapi.SearchRequest{Query: query, K: topK})
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	return b
}

// batchBody marshals one /v1/search/batch request.
func batchBody(queries []string) []byte {
	req := httpapi.BatchSearchRequest{Queries: make([]httpapi.BatchQueryJSON, len(queries))}
	for i, q := range queries {
		req.Queries[i] = httpapi.BatchQueryJSON{Query: q, K: topK}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// relationOp prepares a write carrying a relation body.
func relationOp(method, path string, r *semdisco.Relation, want int) writeOp {
	b, err := json.Marshal(httpapi.RelationJSON{
		ID: r.ID, Source: r.Source, PageTitle: r.PageTitle, SectionTitle: r.SectionTitle,
		Caption: r.Caption, Columns: r.Columns, Rows: r.Rows,
	})
	if err != nil {
		panic(err)
	}
	return writeOp{Method: method, Path: path, Body: b, Want: want}
}

// newMarker draws a 12-letter token no corpus word collides with.
func newMarker(rng *rand.Rand) string {
	b := make([]byte, 12)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// withMarker derives a realistic new relation from a template: the same
// shape and cell vocabulary (so the encoder's token cache and lexicon are
// exercised as by real ingest), rows optionally reversed, plus one column
// and a caption holding the marker token.
func withMarker(tmpl *semdisco.Relation, id, marker string, reverse bool) *semdisco.Relation {
	r := &semdisco.Relation{
		ID: id, Source: tmpl.Source, PageTitle: tmpl.PageTitle, SectionTitle: tmpl.SectionTitle,
		Caption: marker,
		Columns: append(append([]string(nil), tmpl.Columns...), "Marker"),
		Rows:    make([][]string, len(tmpl.Rows)),
	}
	for i, row := range tmpl.Rows {
		src := i
		if reverse {
			src = len(tmpl.Rows) - 1 - i
		}
		r.Rows[src] = append(append([]string(nil), row...), marker)
	}
	return r
}
