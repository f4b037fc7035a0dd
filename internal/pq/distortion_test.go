package pq

import (
	"testing"
)

func TestDistortionStats(t *testing.T) {
	vs := randomUnitVecs(400, 64, 2)
	q, err := Train(vs[:256], Config{M: 8, K: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	d := q.Distortion(vs)
	if d.Samples != 400 {
		t.Fatalf("samples=%d", d.Samples)
	}
	if d.Mean <= 0 || d.P95 <= 0 || d.Max <= 0 {
		t.Fatalf("distortion not positive: %+v", d)
	}
	if d.Mean > d.P95 || d.P95 > d.Max {
		t.Fatalf("quantile ordering violated: %+v", d)
	}
	// Unit vectors: error is bounded by 2 (diametrically opposite points).
	if d.Max > 2.01 {
		t.Fatalf("max error %v exceeds unit-sphere diameter", d.Max)
	}

	// Exact reconstruction of a centroid has (near-)zero error: encode a
	// decoded vector and the round trip is a fixed point.
	fixed := q.Decode(encodeAll(q, vs[:1]), 0)
	if e := q.ReconstructionError(fixed); e > 1e-5 {
		t.Fatalf("fixed-point reconstruction error %v", e)
	}

	if empty := q.Distortion(nil); empty.Samples != 0 || empty.Mean != 0 {
		t.Fatalf("empty distortion=%+v", empty)
	}
}
