package core

import (
	"context"
	"fmt"
	"runtime"

	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/vectordb"
)

// ANNS is the Approximate Nearest Neighbors Search of §4.2 / Algorithm 2:
// value vectors live in a vector database collection, optionally compressed
// with Product Quantization, indexed with HNSW; a query retrieves the
// nearest value vectors and scores each relation by the average similarity
// of its retrieved vectors. The collection holds one point per distinct
// text, and each hit expands through the text's postings to the values
// that carry it.
type ANNS struct {
	queryMetricsCache
	emb       *Embedded
	coll      *vectordb.Collection
	post      *postings
	threshold float32
	fanout    int
	efSearch  int
}

// ANNSOptions configures ANNS.
type ANNSOptions struct {
	// Threshold is the paper's h.
	Threshold float32
	// Fanout is how many distinct texts the index retrieves per query
	// before grouping by relation; defaults to 32·k at query time when zero.
	Fanout int
	// EfSearch is the HNSW beam width; defaults to 128.
	EfSearch int
	// M and EfConstruction tune the HNSW graph (see hnsw.Config).
	M, EfConstruction int
	// DisablePQ turns off Product Quantization (used by the ablation; the
	// paper's configuration keeps it on).
	DisablePQ bool
	// PQTrainSize, PQM, PQK tune the quantizer (see vectordb.PQConfig).
	PQTrainSize, PQM, PQK int
	// Seed drives index construction.
	Seed int64
	// Build bounds construction parallelism (see BuildOptions).
	Build BuildOptions
}

// NewANNS builds the vector-database index over the embedded federation's
// vocabulary: one point per distinct text.
func NewANNS(emb *Embedded, opt ANNSOptions) (*ANNS, error) {
	if opt.EfSearch == 0 {
		opt.EfSearch = 128
	}
	cfg := vectordb.CollectionConfig{
		Dim:            emb.Enc.Dim(),
		M:              opt.M,
		EfConstruction: opt.EfConstruction,
		EfSearch:       opt.EfSearch,
		Seed:           opt.Seed,
		Workers:        opt.Build.workers(),
	}
	if !opt.DisablePQ {
		pqM := opt.PQM
		if pqM == 0 {
			// 4-dim subspaces with 256 centroids: 192 bytes per 768-d
			// vector (16× compression) with quantization error small
			// enough that ranking quality tracks the uncompressed index.
			pqM = emb.Enc.Dim() / 4
			if pqM < 1 {
				pqM = 1
			}
			for emb.Enc.Dim()%pqM != 0 {
				pqM--
			}
		}
		pqK := opt.PQK
		if pqK == 0 {
			pqK = 256
		}
		train := opt.PQTrainSize
		if train == 0 {
			train = 512
		}
		cfg.PQ = &vectordb.PQConfig{M: pqM, K: pqK, TrainSize: train}
	}
	post := newPostings(emb, nil, 1)
	vecs, tags := post.group(emb, 0)
	coll, err := vectordb.Build(cfg, vecs, tags, emb.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: anns: %w", err)
	}
	emb.Obs.Gauge(MetricValues).Set(float64(len(emb.Values)))
	return &ANNS{
		emb:       emb,
		coll:      coll,
		post:      post,
		threshold: opt.Threshold,
		fanout:    opt.Fanout,
		efSearch:  opt.EfSearch,
	}, nil
}

// Name implements Searcher.
func (s *ANNS) Name() string { return "ANNS" }

// Search implements Searcher: Algorithm 2, step 2, for a keyword query.
func (s *ANNS) Search(query string, k int) ([]Match, error) {
	return Search(context.Background(), s, s.emb.Enc, s.emb.Obs, query, k)
}

// SearchEncoded implements EncodedSearcher: Algorithm 2 for an already-
// encoded query vector (retrieve → rank), honoring ctx between HNSW hops.
func (s *ANNS) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return s.SearchFiltered(ctx, q, k, nil)
}

// SearchFiltered implements EncodedSearcher: the restriction is pushed
// into the vector database as a tag filter, so the graph walk routes
// through rejected points but never returns them.
func (s *ANNS) SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error) {
	return searchOne(ctx, s, s.emb.Obs, q, k, allow)
}

// SearchEncodedBatch implements BatchSearcher.
func (s *ANNS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	return searchBatch(ctx, s, qs, ks, costs)
}

func (s *ANNS) searchBlock(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost) ([][]Match, error) {
	return s.emb.searchAllowed(ctx, o, qs, ks, allow, costs, s.search)
}

// annsBlock is how many consecutive queries an ANNS worker walks in one
// run: the unit the workers pull from their queue. A run pays one
// SearchBatch call and one pooled walk scratch for eight walks, and a
// 64-query batch still splits into eight runs, so a worker that drew short
// walks takes another run instead of idling while the other finishes one
// long chunk. A block of one is one run, walked inline.
const annsBlock = 8

// search is ANNS's one query body (retrieve → rank) over a block of
// queries. The block splits into contiguous runs of annsBlock queries,
// which GOMAXPROCS workers pull from a queue; each run walks through one
// collection SearchBatch, reusing one walk scratch (HNSW visited set and
// heaps, and the ADC table) across its queries. A walk never reads
// another's state, so a row and its costs[i] are the same whatever block
// the query arrives in. The retrieved hits are then grouped into ranked
// relations, the block split over the workers again. An error is the
// lowest-indexed query's.
func (s *ANNS) search(ctx context.Context, o searchObs, qs [][]float32, ks []int, allowed relSet, costs []*obs.Cost) ([][]Match, error) {
	nq := len(qs)
	fanouts := make([]int, nq)
	efs := make([]int, nq)
	for i, k := range ks {
		if k > 0 {
			fanouts[i], efs[i] = s.beam(k)
		}
	}
	filter := s.emb.valueFilter(s.post, allowed)
	sp := o.stage("retrieve").AnnotateInt("fanout", fanouts[0]).AnnotateInt("ef", efs[0])
	scanned := o.scanned(costs[0])
	hits := make([][]vectordb.Result, nq)
	errs := make([]error, nq)
	par.Each((nq+annsBlock-1)/annsBlock, runtime.GOMAXPROCS(0), func(b int) {
		lo, hi := b*annsBlock, min((b+1)*annsBlock, nq)
		run, err := s.coll.SearchBatch(ctx, vectordb.Prepare(qs[lo:hi]), fanouts[lo:hi], efs[lo:hi], filter, costs[lo:hi])
		if err != nil {
			errs[lo] = err
			return
		}
		copy(hits[lo:hi], run)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	o.endStage(scanned.annotate(sp).AnnotateInt("hits", len(hits[0])))

	sp = o.stage("rank")
	out := s.emb.rankBlock(s.post, allowed, s.threshold, ks, func(i int) [][]vectordb.Result { return hits[i : i+1] })
	o.endStage(sp.AnnotateInt("matches", len(out[0])))
	return out, nil
}

// beam returns how many texts a top-k query retrieves and the
// HNSW beam width it walks with.
func (s *ANNS) beam(k int) (fanout, ef int) {
	fanout = s.fanout
	if fanout == 0 {
		fanout = 32 * k
	}
	ef = s.efSearch
	if ef < fanout {
		ef = fanout
	}
	return fanout, ef
}

// Stats exposes the underlying collection's storage statistics.
func (s *ANNS) Stats() vectordb.Stats { return s.coll.Stats() }
