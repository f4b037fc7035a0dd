package core

import (
	"context"

	"semdisco/internal/vec"
)

// PRFOptions tunes pseudo-relevance feedback.
type PRFOptions struct {
	// FeedbackDocs is how many top relations feed back; default 3.
	FeedbackDocs int
	// Alpha weighs the original query, Beta the feedback centroid
	// (Rocchio); defaults 1.0 and 0.5.
	Alpha, Beta float32
}

// SearchPRF runs Rocchio-style pseudo-relevance feedback on top of any of
// the three methods: an initial search retrieves FeedbackDocs relations,
// their value-embedding centroids are averaged into a feedback vector, and
// the expanded query α·q + β·centroid is searched again. This is the
// classic query-expansion extension of embedding retrieval; it helps
// exactly where the paper's §5.3 analysis says short queries lack context.
func SearchPRF(ctx context.Context, s EncodedSearcher, emb *Embedded, query string, k int, opt PRFOptions) ([]Match, error) {
	if opt.FeedbackDocs == 0 {
		opt.FeedbackDocs = 3
	}
	if opt.Alpha == 0 {
		opt.Alpha = 1.0
	}
	if opt.Beta == 0 {
		opt.Beta = 0.5
	}
	q := emb.Enc.Encode(query)
	initial, err := s.SearchEncoded(ctx, q, opt.FeedbackDocs)
	if err != nil {
		return nil, err
	}
	if len(initial) == 0 {
		return s.SearchEncoded(ctx, q, k)
	}
	centroid := make([]float32, emb.Enc.Dim())
	for _, m := range initial {
		ri, ok := emb.RelIndex(m.RelationID)
		if !ok {
			continue
		}
		// The relation's own centroid: weighted mean of its value vectors.
		relCentroid := make([]float32, emb.Enc.Dim())
		for _, vi := range emb.PerRel[ri] {
			v := &emb.Values[vi]
			vec.AddScaled(relCentroid, v.Weight, v.Vec)
		}
		vec.Normalize(relCentroid)
		vec.Add(centroid, relCentroid)
	}
	vec.Normalize(centroid)

	expanded := make([]float32, emb.Enc.Dim())
	vec.AddScaled(expanded, opt.Alpha, q)
	vec.AddScaled(expanded, opt.Beta, centroid)
	vec.Normalize(expanded)
	return s.SearchEncoded(ctx, expanded, k)
}
