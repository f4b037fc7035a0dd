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

// ExS is the Exhaustive Search of §4.1 / Algorithm 1: every relation is
// scored against the query by the average of its value similarities. It is
// exact and complete. The average is linear in the query, so one dot
// product per relation centroid plus a value scan of the few relations
// rounding cannot separate (filterVerify) gets the ranking a scan of every
// value would, bit for bit.
type ExS struct {
	queryMetricsCache
	emb       *Embedded
	threshold float32
	parallel  bool
}

// ExSOptions configures ExS.
type ExSOptions struct {
	// Threshold is the paper's h: relations scoring below it are filtered
	// out. Zero keeps everything with a non-negative score.
	Threshold float32
	// Parallel scans relations on all cores; default true. The benchmarks
	// disable it to measure the single-threaded scan the paper reports.
	Parallel *bool
}

// parallelScanMinDots gates the scan fan-out on the dot products of the
// pass — centroid rows streamed times queries scored against each — so a
// tiny corpus never pays the goroutines. Measured on two cores at dim 256
// with binary16 rows (DESIGN.md §11): even at 1,024–2,048, 20–25% saved at
// 4,096 and 8,192.
const parallelScanMinDots = 4096

// scanWorkers is how many relation ranges a scan of nq queries splits into.
func (s *ExS) scanWorkers(nq int) int {
	if s.parallel && s.emb.NumRelations()*nq > parallelScanMinDots {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// NewExS builds an exhaustive searcher over the embedded federation.
func NewExS(emb *Embedded, opt ExSOptions) *ExS {
	parallel := true
	if opt.Parallel != nil {
		parallel = *opt.Parallel
	}
	return &ExS{emb: emb, threshold: opt.Threshold, parallel: parallel}
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

// stopped reports that the scan should end: stop is the workers' shared
// flag, so whichever observes the expired context first pulls every other
// chunk out of the scan.
func stopped(ctx context.Context, stop *atomic.Bool) bool {
	if !stop.Load() && ctx.Err() != nil {
		stop.Store(true)
	}
	return stop.Load()
}

// SearchFiltered implements EncodedSearcher: only relations allow accepts
// are scored; the rest share the tombstones' −Inf sentinel.
func (s *ExS) SearchFiltered(ctx context.Context, q []float32, k int, allow func(string) bool) ([]Match, error) {
	return searchOne(ctx, s, s.emb.Obs, q, k, allow)
}

// SearchEncodedBatch implements BatchSearcher: the centroid rows stream
// once for the whole block (vec.DotHalf scores a pair alike in a block of
// one and in a batch).
func (s *ExS) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]Match, error) {
	return searchBatch(ctx, s, qs, ks, costs)
}

func (s *ExS) searchBlock(ctx context.Context, o searchObs, qs [][]float32, ks []int, allow func(string) bool, costs []*obs.Cost) ([][]Match, error) {
	return s.emb.searchAllowed(ctx, o, qs, ks, allow, costs, s.filterVerify)
}

// chargeScan records what a query streamed: rows centroid rows of dim
// binary16 values and values value vectors of dim float32s, one distance
// computation each.
func (s *ExS) chargeScan(cost *obs.Cost, rows, values int64) {
	if cost != nil && rows+values > 0 {
		dim := int64(s.emb.Enc.Dim())
		cost.AddDistanceComps(rows + values)
		cost.AddValuesScanned(rows + values)
		cost.AddBytesScanned(rows*dim*2 + values*dim*4)
	}
}

// underflowMargin is the absolute part of every margin at dim: a product
// below 2⁻¹²⁶ rounds by up to 2⁻¹⁵⁰ absolutely, at most 2·dim+2 times a
// relation.
func underflowMargin(dim int) float64 { return float64(dim+1) * 0x1p-148 }

// margin bounds |ã − exact score| for a query of the given norm and a
// relation of error factor errFactor; under is underflowMargin(dim).
// filterVerify takes norm and under once per query, so its prune loop
// reads one error factor per relation and makes no call.
func margin(norm, errFactor, under float64) float64 { return norm*errFactor + under }

// filterVerify is ExS's one query body, the scan + rank of a block of
// queries (a block of one is the single query, whose stages o records).
// Filter: every live, allowed relation gets ã = q·h_rel from its binary16
// centroid row (vec.DotHalf, scored a run of contiguous rows at a time),
// and its exact score E lies within m = margin(‖q‖, A_rel, ·) of ã. With L the
// least ã − m among the k best ã, k relations score at least L, so every
// relation of the exact top k has ã + m ≥ E ≥ L. Verify: exactly those are
// re-scored with scoreRelation — pruning on strict ã + m < L keeps what
// ties L — and ranking them as TopKDesc would (exact score descending, slot
// ascending) ranks the corpus (DESIGN.md §11). Fewer than k scored
// relations, a query norm over maxQueryNorm and any NaN all fall on the
// candidate side. A query is charged its centroid rows + verified values.
func (s *ExS) filterVerify(ctx context.Context, o searchObs, qs [][]float32, ks []int, allowed relSet, costs []*obs.Cost) ([][]Match, error) {
	emb := s.emb
	n, nq, dim := emb.NumRelations(), len(qs), emb.Enc.Dim()
	tombs := emb.Tombs
	hasDead := tombs.Count() > 0
	skipped := func(rel int) bool { return hasDead && tombs.Dead(rel) || !allowed.has(rel) }
	workers := s.scanWorkers(nq)
	sp := o.stage("scan").AnnotateInt("relations", n)

	// approx[qi*n+rel] is query qi's ã for relation rel.
	approx := make([]float32, nq*n)
	var stop atomic.Bool
	cancellable := ctx.Done() != nil
	var filtered atomic.Int64
	par.For(n, workers, func(lo, hi int) {
		scored := 0
		for start := lo; start < hi; start += centroidBlock {
			if cancellable && stopped(ctx, &stop) {
				break
			}
			end := min(start+centroidBlock, hi)
			for rel := start; rel < end; {
				if skipped(rel) {
					for qi := 0; qi < nq; qi++ {
						approx[qi*n+rel] = negInf
					}
					rel++
					continue
				}
				run := rel + 1
				for run < end && !skipped(run) {
					run++
				}
				vec.DotHalf(qs, emb.Centroids[rel*dim:run*dim], approx[rel:], n)
				scored += run - rel
				rel = run
			}
		}
		filtered.Add(int64(scored))
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	cands := make([][]vec.Scored, nq)
	values := make([]int64, nq)
	errs, under := emb.CentroidErr, underflowMargin(dim)
	par.For(nq, workers, func(lo, hi int) {
		for qi := lo; qi < hi; qi++ {
			q, k, row := qs[qi], ks[qi], approx[qi*n:(qi+1)*n]
			if k <= 0 {
				continue
			}
			var sq float64
			for _, x := range q {
				sq += float64(x) * float64(x)
			}
			norm := math.Sqrt(sq)
			cutoff := math.Inf(-1)
			if top := vec.TopKDesc(row, k); len(top) == k && norm < maxQueryNorm {
				cutoff = math.Inf(1)
				for _, t := range top {
					if low := float64(t.Score) - margin(norm, errs[t.ID], under); !(low >= cutoff) {
						cutoff = low
					}
				}
			}
			cands[qi] = make([]vec.Scored, 0, min(k, n))
			for rel, a := range row {
				if float64(a)+margin(norm, errs[rel], under) < cutoff || skipped(rel) {
					continue
				}
				cands[qi] = append(cands[qi], vec.Scored{ID: rel, Score: s.scoreRelation(q, rel)})
				values[qi] += int64(len(emb.PerRel[rel]))
			}
		}
	})
	rows := filtered.Load()
	o.endStage(sp.AnnotateInt("values_scanned", int(rows+values[0])).AnnotateInt("relations_verified", len(cands[0])))

	sp = o.stage("rank")
	out := make([][]Match, nq)
	for qi, k := range ks {
		if k <= 0 {
			continue
		}
		vec.SortScoredDesc(cands[qi])
		out[qi] = make([]Match, 0, min(k, len(cands[qi])))
		for _, sc := range cands[qi] {
			if sc.Score < s.threshold || len(out[qi]) == k {
				break
			}
			out[qi] = append(out[qi], Match{RelationID: emb.RelIDs[sc.ID], Score: sc.Score})
		}
		if costs[qi] != nil {
			s.chargeScan(costs[qi], rows, values[qi])
			costs[qi].AddCandidatesGenerated(int64(n))
			costs[qi].AddCandidatesPruned(int64(n - len(out[qi])))
		}
	}
	o.endStage(sp.AnnotateInt("matches", len(out[0])))
	return out, nil
}

// scoreRelation is relation rel's exact score: the multiplicity-weighted
// mean of its value similarities, the paper's plain average, summed in
// PerRel order. Its value rows go through vec.DotBatch's 4-query block four
// at a time, passed as the block's "queries" against q, so each load of q
// serves four rows. Dot(a, b) and Dot(b, a) have the same bits — the
// products commute and both run the one lane recipe — so every term is the
// vec.Dot the oracle sums.
func (s *ExS) scoreRelation(q []float32, rel int) float32 {
	emb := s.emb
	idxs := emb.PerRel[rel]
	if len(idxs) == 0 {
		return 0
	}
	one := [1][]float32{q}
	var rows [4][]float32
	var dots [4]float32
	var sum float32
	for start := 0; start < len(idxs); start += 4 {
		blk := idxs[start:min(start+4, len(idxs))]
		for i, vi := range blk {
			rows[i] = emb.Values[vi].Vec
		}
		vec.DotBatch(rows[:len(blk)], one[:], dots[:])
		for i, vi := range blk {
			sum += emb.Values[vi].Weight * dots[i]
		}
	}
	return sum / emb.TotalWeight[rel]
}
