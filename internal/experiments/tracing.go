package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// TracingReportJSON is the tracing-overhead section of the benchmark
// report: the same queries run through the same ExS index twice, once with
// the span-tree tracing path off (nil trace) and once with every query
// under a recorded root span offered to a tail-sampling store at the
// default 1-in-64 head sample rate, and the p50s are compared. ExS is used
// because its queries are the cheapest, making the fixed per-query tracing
// cost (trace ID mint, span records, store offer) maximally visible.
type TracingReportJSON struct {
	Method          string  `json:"method"`
	Queries         int     `json:"queries"`
	HeadSampleEvery int     `json:"head_sample_every"`
	BaselineP50MS   float64 `json:"baseline_p50_ms"`
	TracedP50MS     float64 `json:"traced_p50_ms"`
	// OverheadPct is (traced - baseline) / baseline on the p50, in percent.
	// Negative values mean the difference drowned in run-to-run noise.
	OverheadPct float64 `json:"overhead_pct"`
	// TracesKept is how many traces the store retained (head samples; the
	// benchmark queries never degrade or error).
	TracesKept int64 `json:"traces_kept"`
}

// tracingReps repeats the query set so the p50 rests on enough samples for
// small corpora.
const tracingReps = 3

// TracingReport replays every benchmark query through the LD partition's
// ExS index twice — untraced versus under a recorded span tree offered to
// a trace store with the default 1-in-64 head sampler — and reports the
// p50 latency delta: the measured per-query cost of the tracing subsystem.
func (b *Bench) TracingReport(k int) (*TracingReportJSON, error) {
	if k <= 0 {
		k = 20
	}
	sb := b.PerSize["LD"]
	s, ok := sb.Searchers["ExS"]
	if !ok {
		return nil, fmt.Errorf("experiments: ExS not built")
	}
	cs, ok := s.(core.EncodedSearcher)
	if !ok {
		return nil, fmt.Errorf("experiments: ExS does not support context search")
	}
	ctx := context.Background()
	store := obs.NewTraceStore(obs.TraceStoreConfig{HeadSampleEvery: 64})

	run := func(traced bool) ([]float64, error) {
		// One untimed pass warms the encoder cache so both runs pay it.
		for _, q := range b.Corpus.Queries {
			if _, err := core.Search(ctx, cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k); err != nil {
				return nil, err
			}
		}
		durations := make([]float64, 0, tracingReps*len(b.Corpus.Queries))
		for rep := 0; rep < tracingReps; rep++ {
			for _, q := range b.Corpus.Queries {
				start := time.Now()
				if traced {
					// The engine's traced path: root span, stage spans
					// recorded by the searcher, outcome offered to the store.
					tr := obs.NewTrace()
					root := tr.StartRoot("search")
					m, err := core.Search(obs.ContextWithTrace(ctx, tr), cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k)
					if err != nil {
						return nil, err
					}
					root.AnnotateInt("matches", len(m))
					dur := root.End()
					store.Offer(tr, obs.TraceOutcome{
						Duration: dur, Query: q.Text, Method: "ExS",
						K: k, Matches: len(m),
					})
				} else if _, err := core.Search(ctx, cs, sb.Emb.Enc, sb.Emb.Obs, q.Text, k); err != nil {
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
	traced, err := run(true)
	if err != nil {
		return nil, err
	}

	r := &TracingReportJSON{
		Method:          "ExS",
		Queries:         len(traced),
		HeadSampleEvery: 64,
		BaselineP50MS:   baseline[len(baseline)/2],
		TracedP50MS:     traced[len(traced)/2],
		TracesKept:      store.Kept(),
	}
	if r.BaselineP50MS > 0 {
		r.OverheadPct = (r.TracedP50MS - r.BaselineP50MS) / r.BaselineP50MS * 100
	}
	return r, nil
}
