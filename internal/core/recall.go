package core

// RecallSample is one probed query: the overlap between the approximate
// searcher's top-k relations and the exhaustive ground truth's.
type RecallSample struct {
	Query  string  `json:"query"`
	Recall float64 `json:"recall"`
	Approx int     `json:"approx_results"`
	Exact  int     `json:"exact_results"`
}

// RecallResult aggregates a probe run. Recall is the mean per-query
// recall@k in [0,1]; queries whose ground truth is empty are skipped (they
// carry no recall signal).
type RecallResult struct {
	Method  string         `json:"method"`
	K       int            `json:"k"`
	Probed  int            `json:"probed"`
	Skipped int            `json:"skipped"`
	Recall  float64        `json:"recall_at_k"`
	Source  string         `json:"query_source,omitempty"`
	Samples []RecallSample `json:"samples,omitempty"`
}

// ProbeRecall replays queries through both the given (approximate)
// searcher and an exhaustive scan over the same embedded federation, and
// measures recall@k: |approx ∩ exact| / |exact|. This turns the
// ExS-vs-ANNS/CTS accuracy trade-off from an assumption into a measured,
// monitorable quantity — the approximate indexes degrade silently as the
// corpus grows (PQ codebooks go stale, clusters unbalance), and only an
// online probe makes that visible.
//
// Cost is one approximate plus one exhaustive search per query; probe at
// diagnostic cadence. Must not race with AddRelation.
func ProbeRecall(s Searcher, emb *Embedded, queries []string, k int, threshold float32) (RecallResult, error) {
	res := RecallResult{Method: s.Name(), K: k}
	if k <= 0 || len(queries) == 0 {
		return res, nil
	}
	// Ground truth shares the searcher's scoring rule (weighted-mean
	// aggregation, same threshold) so the only difference is index
	// approximation. The exhaustive scan needs no build phase.
	exact := NewExS(emb, ExSOptions{Threshold: threshold})

	var sum float64
	for _, q := range queries {
		truth, err := exact.Search(q, k)
		if err != nil {
			return res, err
		}
		if len(truth) == 0 {
			res.Skipped++
			continue
		}
		got, err := s.Search(q, k)
		if err != nil {
			return res, err
		}
		truthSet := make(map[string]struct{}, len(truth))
		for _, m := range truth {
			truthSet[m.RelationID] = struct{}{}
		}
		overlap := 0
		for _, m := range got {
			if _, ok := truthSet[m.RelationID]; ok {
				overlap++
			}
		}
		r := float64(overlap) / float64(len(truth))
		res.Samples = append(res.Samples, RecallSample{
			Query: q, Recall: r, Approx: len(got), Exact: len(truth),
		})
		sum += r
		res.Probed++
	}
	if res.Probed > 0 {
		res.Recall = sum / float64(res.Probed)
	}
	return res, nil
}

// SampleValueTexts returns the texts of a stride sample of up to n stored
// values — surrogate probe queries for engines that have not yet served
// real traffic. The stride runs over values, not the vocabulary, so a text
// is sampled as often as the relations holding it make it.
func (e *Embedded) SampleValueTexts(n int) []string {
	if len(e.Values) == 0 || n <= 0 {
		return nil
	}
	idx := strideSample(len(e.Values), n)
	out := make([]string, len(idx))
	for i, gi := range idx {
		out[i] = e.texts[e.Values[gi].Text]
	}
	return out
}
