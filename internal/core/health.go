package core

import (
	"math"

	"semdisco/internal/hnsw"
	"semdisco/internal/pq"
	"semdisco/internal/vec"
)

// healthSampleCap bounds the PQ distortion probe: reconstruction error is
// measured over a stride sample of stored vectors, not the full corpus.
const healthSampleCap = 256

// GraphHealth mirrors hnsw.GraphStats for a single HNSW graph.
type GraphHealth struct {
	Nodes             int               `json:"nodes"`
	MaxLevel          int               `json:"max_level"`
	Layers            []hnsw.LayerStats `json:"layers,omitempty"`
	ReachableFraction float64           `json:"reachable_fraction"`
}

// PQHealth reports quantizer shape and sampled reconstruction distortion.
type PQHealth struct {
	Trained    bool          `json:"trained"`
	M          int           `json:"m,omitempty"`
	K          int           `json:"k,omitempty"`
	Distortion pq.Distortion `json:"distortion"`
}

// ClusterHealth reports CTS cluster balance and medoid drift. SizeCV is
// the coefficient of variation of cluster sizes (stddev/mean): near 0 is
// balanced, large values mean a few mega-clusters dominate query cost.
// MedoidDrift is 1 - cosine(medoid, current cluster centroid); it grows as
// incremental adds pull a cluster's mass away from the medoid chosen at
// build time — the signal that a re-clustering rebuild is due.
type ClusterHealth struct {
	Clusters        int     `json:"clusters"`
	MinSize         int     `json:"min_size"`
	MaxSize         int     `json:"max_size"`
	MeanSize        float64 `json:"mean_size"`
	SizeCV          float64 `json:"size_cv"`
	MeanMedoidDrift float64 `json:"mean_medoid_drift"`
	MaxMedoidDrift  float64 `json:"max_medoid_drift"`
}

// IndexHealth is the self-diagnosis of one built index. Which sections are
// populated depends on the method: ExS has none (no index), ANNS has Graph
// and PQ, CTS has Clusters.
type IndexHealth struct {
	Method   string         `json:"method"`
	Values   int            `json:"values"`
	Graph    *GraphHealth   `json:"graph,omitempty"`
	PQ       *PQHealth      `json:"pq,omitempty"`
	Clusters *ClusterHealth `json:"clusters,omitempty"`
}

// HealthReporter is implemented by searchers that can introspect their
// index structures. All three methods implement it. IndexHealth walks the
// index (O(nodes+edges) of ANNS's graph plus a bounded distortion sample);
// call it at diagnostic cadence, not per query. Reading the graph stats
// links the rows ANNS's collection left pending (see vectordb.Build), so
// the first call after an ANNS build pays for the graph no query had
// walked. It may run concurrently with searches.
type HealthReporter interface {
	IndexHealth() IndexHealth
}

// driftReporter is the part of IndexHealth the compaction policy reads:
// the PQ and cluster sections, which drift as values are deleted, without
// the graph stats, whose reading would link every pending graph row.
// ANNS and CTS implement it; ANNS's IndexHealth adds the graph section.
type driftReporter interface {
	driftHealth() IndexHealth
}

func graphHealth(gs hnsw.GraphStats) *GraphHealth {
	return &GraphHealth{
		Nodes:             gs.Nodes,
		MaxLevel:          gs.MaxLevel,
		Layers:            gs.Layers,
		ReachableFraction: gs.ReachableFraction,
	}
}

// IndexHealth implements HealthReporter: ExS keeps no index, so only the
// corpus shape is reported.
func (s *ExS) IndexHealth() IndexHealth {
	return IndexHealth{Method: s.Name(), Values: s.emb.NumValues()}
}

// IndexHealth implements HealthReporter: HNSW graph structure plus PQ
// distortion sampled over the stored text vectors.
func (s *ANNS) IndexHealth() IndexHealth {
	h := s.driftHealth()
	h.Graph = graphHealth(s.coll.GraphStats())
	return h
}

// driftHealth implements driftReporter: the PQ section.
func (s *ANNS) driftHealth() IndexHealth {
	h := IndexHealth{Method: s.Name(), Values: s.emb.NumValues()}
	if q := s.coll.Quantizer(); q != nil {
		// Reconstruction error against the unit-normalized originals the
		// collection indexed (embeddings are already unit vectors), one per
		// text. Only live texts are sampled: as tombstones accumulate, the
		// sample drifts away from the distribution the codebook was trained
		// on, so the distortion gauge grows — the signal the compaction
		// policy turns into a PQ re-train.
		sample := sampleVectors(s.emb, s.post, healthSampleCap)
		h.PQ = &PQHealth{Trained: true, M: q.CodeLen(), K: q.K(), Distortion: q.Distortion(sample)}
	} else {
		h.PQ = &PQHealth{Trained: false}
	}
	return h
}

// IndexHealth implements HealthReporter: cluster size balance and medoid
// drift. CTS keeps no graph, so this is its driftHealth.
func (s *CTS) IndexHealth() IndexHealth { return s.driftHealth() }

// driftHealth implements driftReporter: cluster size balance and medoid
// drift.
func (s *CTS) driftHealth() IndexHealth {
	h := IndexHealth{Method: s.Name(), Values: s.emb.NumValues()}
	nc := len(s.medoidVecs)
	if nc == 0 {
		return h
	}

	// Cluster sizes and fresh centroids in the original embedding space,
	// over live values only: deleting a cluster's values pulls its live
	// centroid away from the build-time medoid, so the drift gauges grow
	// with churn — the signal the compaction policy turns into a
	// re-clustering rebuild.
	dim := s.emb.Enc.Dim()
	sizes := make([]int, nc)
	centroids := make([][]float32, nc)
	for c := range centroids {
		centroids[c] = make([]float32, dim)
	}
	hasDead := s.emb.deadCount() > 0
	for i := range s.emb.Values {
		c := s.clusterOf[i]
		if c < 0 || c >= nc {
			continue
		}
		if hasDead && s.emb.Tombs.Dead(int(s.emb.Values[i].Rel)) {
			continue
		}
		sizes[c]++
		vec.Add(centroids[c], s.emb.Values[i].Vec)
	}

	ch := &ClusterHealth{Clusters: nc, MinSize: math.MaxInt}
	var sizeSum float64
	for _, n := range sizes {
		sizeSum += float64(n)
		if n < ch.MinSize {
			ch.MinSize = n
		}
		if n > ch.MaxSize {
			ch.MaxSize = n
		}
	}
	ch.MeanSize = sizeSum / float64(nc)
	var varSum float64
	for _, n := range sizes {
		d := float64(n) - ch.MeanSize
		varSum += d * d
	}
	if ch.MeanSize > 0 {
		ch.SizeCV = math.Sqrt(varSum/float64(nc)) / ch.MeanSize
	}

	var driftSum float64
	drifted := 0
	for c := range centroids {
		if sizes[c] == 0 {
			continue
		}
		vec.Normalize(centroids[c])
		drift := 1 - float64(vec.Dot(s.medoidVecs[c], centroids[c]))
		if drift < 0 {
			drift = 0 // float noise around exactly-aligned vectors
		}
		driftSum += drift
		drifted++
		if drift > ch.MaxMedoidDrift {
			ch.MaxMedoidDrift = drift
		}
	}
	if drifted > 0 {
		ch.MeanMedoidDrift = driftSum / float64(drifted)
	}
	h.Clusters = ch
	return h
}

// sampleVectors returns a stride sample of up to cap of the vocabulary rows
// ANNS indexes, drawn from live texts only when the segment carries
// tombstones: a text is live when any value in its posting is.
func sampleVectors(emb *Embedded, post *postings, cap int) [][]float32 {
	live := emb.valueFilter(post, nil)
	texts := make([]int32, 0, len(post.text))
	for p, t := range post.text {
		if live == nil || live(int32(p)) {
			texts = append(texts, t)
		}
	}
	idx := strideSample(len(texts), cap)
	out := make([][]float32, len(idx))
	for i, j := range idx {
		out[i] = emb.rows[texts[j]]
	}
	return out
}
