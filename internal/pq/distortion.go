package pq

import (
	"math"
	"sort"

	"semdisco/internal/vec"
)

// Distortion summarizes the reconstruction error of a quantizer over a set
// of vectors: the L2 distance between each vector and its decode(encode(·))
// round trip. Rising distortion after incremental adds means the codebooks
// — trained once on the first TrainSize vectors — no longer fit the data
// distribution, silently degrading ranking quality.
type Distortion struct {
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	P95     float64 `json:"p95"`
	Max     float64 `json:"max"`
}

// ReconstructionError returns the L2 distance between v and its quantized
// reconstruction.
func (q *Quantizer) ReconstructionError(v []float32) float64 {
	codes := q.NewCodes(1)
	q.Encode(v, codes, 0)
	return math.Sqrt(float64(vec.L2Sq(v, q.Decode(codes, 0))))
}

// Distortion measures reconstruction error over the given vectors. The
// caller chooses the sample; cost is one encode+decode per vector.
func (q *Quantizer) Distortion(vectors [][]float32) Distortion {
	d := Distortion{Samples: len(vectors)}
	if len(vectors) == 0 {
		return d
	}
	errs := make([]float64, len(vectors))
	var sum float64
	for i, v := range vectors {
		e := q.ReconstructionError(v)
		errs[i] = e
		sum += e
		if e > d.Max {
			d.Max = e
		}
	}
	d.Mean = sum / float64(len(errs))
	sort.Float64s(errs)
	idx := int(math.Ceil(0.95*float64(len(errs)))) - 1
	if idx < 0 {
		idx = 0
	}
	d.P95 = errs[idx]
	return d
}
