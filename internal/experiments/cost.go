package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// MethodCostJSON is one method's cost-model numbers on the LD partition:
// the mean per-query work counts accumulated by the cost-accounting
// subsystem, averaged over every benchmark query. DistanceComps is the
// unit the paper's complexity arguments are stated in — ExS pays one per
// indexed value, ANNS/CTS only for the vectors their index walks touch.
type MethodCostJSON struct {
	Method  string `json:"method"`
	Queries int    `json:"queries"`
	// MeanDistanceComps is full-precision distance computations per query.
	MeanDistanceComps float64 `json:"mean_distance_comps"`
	// MeanHNSWHops is graph hops per query (ANNS/CTS only).
	MeanHNSWHops float64 `json:"mean_hnsw_hops,omitempty"`
	// MeanPQLookups is ADC table lookups per query (ANNS with PQ on).
	MeanPQLookups float64 `json:"mean_pq_lookups,omitempty"`
	// MeanBytesScanned is vector bytes read per query.
	MeanBytesScanned float64 `json:"mean_bytes_scanned,omitempty"`
	// MeanCandidatesGenerated / Pruned summarize selectivity.
	MeanCandidatesGenerated float64 `json:"mean_candidates_generated,omitempty"`
	MeanCandidatesPruned    float64 `json:"mean_candidates_pruned,omitempty"`
}

// CostReportJSON is the -cost section of the benchmark report: per-method
// cost-model numbers plus the measured overhead of the accounting itself
// (the same ExS queries with and without a Cost accumulator in the
// context, p50 compared — the counters are flushed per chunk, so the
// delta should drown in run-to-run noise).
type CostReportJSON struct {
	Methods []MethodCostJSON `json:"methods"`
	// Overhead of accounting on ExS p50, measured like TracingReport.
	BaselineP50MS  float64 `json:"baseline_p50_ms"`
	AccountedP50MS float64 `json:"accounted_p50_ms"`
	// OverheadPct is (accounted - baseline) / baseline on the p50, in
	// percent. Negative values mean the difference drowned in noise.
	OverheadPct float64 `json:"overhead_pct"`
}

// CostReport runs every benchmark query through each core method on the
// LD partition with a cost accumulator attached and reports the mean
// per-query work counts, then measures what the accounting costs: the
// ExS query set timed with and without a Cost in the context.
func (b *Bench) CostReport(k int) (*CostReportJSON, error) {
	if k <= 0 {
		k = 20
	}
	sb := b.PerSize["LD"]
	ctx := context.Background()
	r := &CostReportJSON{}
	for _, method := range []string{"ExS", "ANNS", "CTS"} {
		s, ok := sb.Searchers[method]
		if !ok {
			continue
		}
		cs, ok := s.(core.EncodedSearcher)
		if !ok {
			return nil, fmt.Errorf("experiments: %s does not support context search", method)
		}
		var sum obs.CostReport
		for _, q := range b.Corpus.Queries {
			cost := &obs.Cost{}
			if _, err := core.Search(obs.ContextWithCost(ctx, cost), cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k); err != nil {
				return nil, err
			}
			sum.Add(cost.Report())
		}
		n := float64(len(b.Corpus.Queries))
		r.Methods = append(r.Methods, MethodCostJSON{
			Method:                  method,
			Queries:                 len(b.Corpus.Queries),
			MeanDistanceComps:       float64(sum.DistanceComps) / n,
			MeanHNSWHops:            float64(sum.HNSWHops) / n,
			MeanPQLookups:           float64(sum.PQLookups) / n,
			MeanBytesScanned:        float64(sum.BytesScanned) / n,
			MeanCandidatesGenerated: float64(sum.CandidatesGenerated) / n,
			MeanCandidatesPruned:    float64(sum.CandidatesPruned) / n,
		})
	}

	s, ok := sb.Searchers["ExS"]
	if !ok {
		return r, nil
	}
	cs := s.(core.EncodedSearcher)
	run := func(accounted bool) ([]float64, error) {
		// One untimed pass warms the encoder cache so both runs pay it.
		for _, q := range b.Corpus.Queries {
			if _, err := core.Search(ctx, cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k); err != nil {
				return nil, err
			}
		}
		durations := make([]float64, 0, tracingReps*len(b.Corpus.Queries))
		for rep := 0; rep < tracingReps; rep++ {
			for _, q := range b.Corpus.Queries {
				qctx := ctx
				if accounted {
					qctx = obs.ContextWithCost(ctx, &obs.Cost{})
				}
				start := time.Now()
				if _, err := core.Search(qctx, cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k); err != nil {
					return nil, err
				}
				durations = append(durations, float64(time.Since(start).Microseconds())/1000)
			}
		}
		sort.Float64s(durations)
		return durations, nil
	}
	baseline, err := run(false)
	if err != nil {
		return nil, err
	}
	accounted, err := run(true)
	if err != nil {
		return nil, err
	}
	r.BaselineP50MS = baseline[len(baseline)/2]
	r.AccountedP50MS = accounted[len(accounted)/2]
	if r.BaselineP50MS > 0 {
		r.OverheadPct = (r.AccountedP50MS - r.BaselineP50MS) / r.BaselineP50MS * 100
	}
	return r, nil
}
