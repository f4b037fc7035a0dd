package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

	"semdisco/internal/obs"
	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// negInf is the scan score of a tombstoned relation: it sorts after every
// real score, and no finite threshold admits it, so dead relations fall out
// of the ranked prefix without the selection needing to over-request — even
// when fewer than k live relations remain.
var negInf = float32(math.Inf(-1))

// ExS is the Exhaustive Search of §4.1 / Algorithm 1: every value vector of
// every relation is compared against the query vector; per-relation scores
// are the aggregate (by default the average) of the value similarities.
// It is exact and complete, and its query cost is linear in the total
// number of embedded values — the scalability ceiling the other two
// methods exist to break.
type ExS struct {
	emb       *Embedded
	threshold float32
	agg       Aggregator
	topM      int
	parallel  bool
}

// ExSOptions configures ExS.
type ExSOptions struct {
	// Threshold is the paper's h: relations scoring below it are filtered
	// out. Zero keeps everything with a non-negative score.
	Threshold float32
	// Aggregator selects how value scores fold into a relation score;
	// default AggMean (the paper's averaging).
	Aggregator Aggregator
	// TopM is the m for AggTopM; default 5.
	TopM int
	// Parallel scans relations on all cores; default true. The benchmarks
	// disable it to measure the single-threaded scan the paper reports.
	Parallel *bool
}

// parallelScanMinValues gates the scan fan-out on the real work — value-
// vector dot products — rather than the relation count: a federation of a
// few huge relations benefits from the parallel scan just as much as one
// of many small relations, while a tiny corpus never pays the goroutine
// overhead no matter how it is partitioned.
const parallelScanMinValues = 2048

// scanWorkers is how many contiguous relation ranges a scan splits into.
func (s *ExS) scanWorkers() int {
	if s.parallel && len(s.emb.Values) > parallelScanMinValues {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// NewExS builds an exhaustive searcher over the embedded federation.
func NewExS(emb *Embedded, opt ExSOptions) *ExS {
	if opt.TopM == 0 {
		opt.TopM = 5
	}
	parallel := true
	if opt.Parallel != nil {
		parallel = *opt.Parallel
	}
	return &ExS{
		emb:       emb,
		threshold: opt.Threshold,
		agg:       opt.Aggregator,
		topM:      opt.TopM,
		parallel:  parallel,
	}
}

// Name implements Searcher.
func (s *ExS) Name() string { return "ExS" }

// Search implements Searcher: Algorithm 1 for a keyword query.
func (s *ExS) Search(query string, k int) ([]Match, error) {
	return Search(context.Background(), s, s.emb.Enc, s.emb.Obs, query, k)
}

// SearchEncoded implements EncodedSearcher: Algorithm 1 for an already-
// encoded query vector, with its stages (scan → rank) recorded on the
// context's trace and on the method's stage histograms.
func (s *ExS) SearchEncoded(ctx context.Context, q []float32, k int) ([]Match, error) {
	return s.SearchFiltered(ctx, q, k, nil)
}

// cancelCheckRelations is how many relations each scan worker scores
// between two context polls: small enough that a deadline lands within a
// fraction of a millisecond, large enough that ctx.Err() stays free.
const cancelCheckRelations = 64

// SearchFiltered implements EncodedSearcher: the scan + rank body. Only
// relations allow accepts are scored; the rest share the tombstones' −Inf
// sentinel.
func (s *ExS) SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error) {
	if k <= 0 {
		return nil, nil
	}
	o := startSearch(ctx, s.emb.Obs, s.Name())
	allowed := s.emb.allowedSet(allow)
	n := s.emb.NumRelations()
	scores := make([]float32, n)
	sp := o.stage("scan").
		AnnotateInt("relations", n).
		AnnotateInt("values_scanned", len(s.emb.Values))

	// A single stop flag lets whichever worker observes the expired context
	// first pull every other chunk out of the scan.
	var stop atomic.Bool
	cancellable := ctx.Done() != nil
	cost := obs.CostFrom(ctx)
	vecBytes := int64(s.emb.Enc.Dim()) * 4
	// Tombstoned relations are not scored at all: their slots get the −Inf
	// sentinel, which the ranked prefix can never admit. hasDead snapshots
	// the set once, so churn-free scans pay one branch on a local bool.
	tombs := s.emb.Tombs
	hasDead := tombs.Count() > 0
	scoreRange := func(lo, hi int) {
		// Each worker counts its scanned values in a plain local and flushes
		// once at the end, so cost accounting adds no atomics to the scan.
		var scanned int64
		topm := s.newTopMScratch()
		for rel := lo; rel < hi; rel++ {
			if cancellable && rel%cancelCheckRelations == 0 {
				if stop.Load() {
					break
				}
				if ctx.Err() != nil {
					stop.Store(true)
					break
				}
			}
			if hasDead && tombs.Dead(rel) || !allowed.has(rel) {
				scores[rel] = negInf
				continue
			}
			scores[rel] = s.scoreRelation(q, rel, topm)
			scanned += int64(len(s.emb.PerRel[rel]))
		}
		if cost != nil && scanned > 0 {
			cost.AddDistanceComps(scanned)
			cost.AddValuesScanned(scanned)
			cost.AddBytesScanned(scanned * vecBytes)
		}
	}
	par.For(n, s.scanWorkers(), scoreRange)
	o.endStage(sp)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = o.stage("rank")
	// Bounded selection: only the top k of the n relation scores are ever
	// requested, so heap-selecting them beats materializing and sorting all
	// n. TopKDesc returns exactly the prefix the full sort would, ties
	// included, so the ranking is unchanged bit for bit.
	out := make([]Match, 0, k)
	for _, sc := range vec.TopKDesc(scores, k) {
		if sc.Score < s.threshold {
			break
		}
		out = append(out, Match{RelationID: s.emb.RelIDs[sc.ID], Score: sc.Score})
		if len(out) == k {
			break
		}
	}
	o.endStage(sp.AnnotateInt("matches", len(out)))
	if cost != nil {
		cost.AddCandidatesGenerated(int64(n))
		cost.AddCandidatesPruned(int64(n - len(out)))
	}
	return out, nil
}

// newTopMScratch returns a reusable AggTopM selection buffer for one
// worker, or nil when the aggregator never needs one.
func (s *ExS) newTopMScratch() []float32 {
	if s.agg != AggTopM {
		return nil
	}
	return make([]float32, 0, s.topM)
}

// insertTopM folds x into buf, a descending-sorted buffer of the m largest
// values seen so far. Replacement is strict (x must beat the current
// minimum), so among equal values the earliest arrivals are kept — the same
// multiset a full descending sort selects — and summing buf front to back
// adds the values in descending order, exactly like sort-then-sum. That
// makes the bounded selection bit-identical to the historical
// sort.Slice-the-whole-relation path while doing O(len·m) work on a buffer
// that never reallocates.
func insertTopM(buf []float32, x float32, m int) []float32 {
	if len(buf) == m {
		if x <= buf[m-1] {
			return buf
		}
		buf = buf[:m-1]
	}
	i := len(buf)
	buf = append(buf, x)
	for ; i > 0 && buf[i-1] < x; i-- {
		buf[i] = buf[i-1]
	}
	buf[i] = x
	return buf
}

// scoreRelation folds the similarities of one relation's values. topm is
// the worker's reusable AggTopM buffer (see newTopMScratch); ignored by
// the other aggregators.
func (s *ExS) scoreRelation(q []float32, rel int, topm []float32) float32 {
	idxs := s.emb.PerRel[rel]
	if len(idxs) == 0 {
		return 0
	}
	switch s.agg {
	case AggMax:
		best := float32(-1)
		for _, vi := range idxs {
			if sim := vec.Dot(q, s.emb.Values[vi].Vec); sim > best {
				best = sim
			}
		}
		return best
	case AggTopM:
		buf := topm[:0]
		for _, vi := range idxs {
			buf = insertTopM(buf, vec.Dot(q, s.emb.Values[vi].Vec), s.topM)
		}
		var sum float32
		for _, x := range buf {
			sum += x
		}
		return sum / float32(len(buf))
	default: // AggMean: multiplicity-weighted mean = paper's plain average
		var sum float32
		for _, vi := range idxs {
			v := &s.emb.Values[vi]
			sum += v.Weight * vec.Dot(q, v.Vec)
		}
		return sum / s.emb.TotalWeight[rel]
	}
}
