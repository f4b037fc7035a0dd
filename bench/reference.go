package main

import (
	"encoding/json"
	"math"
	"time"
)

// The seed box is a 2-vCPU virtual machine on a shared host, and the speed
// of ordinary code on it drifts by 20-30% over minutes (see NOISE.md): far
// more than any change this benchmark is meant to judge, and no statistic
// taken inside a 25 s run can average it away. So every run carries its own
// yardstick. The reference below is fixed work owned by the harness — a
// dot-product scan over a private 8 MB matrix (throughput- and cache-bound,
// like the search kernels) and a JSON encode/decode loop (branchy, allocating,
// like the HTTP layers). It is timed before every set-up and between any two
// timed rounds, and the run's timings are scaled by the median of how much
// slower than nominal it ran. The end-to-end timings are therefore
// "milliseconds on the seed box when it is quiet"; ref.slowdown and the raw
// values are reported beside the per-layer metrics. Nothing the system under
// test does can change the reference, so a real gain shows in full.

// Nominal reference times on the quiet seed box, frozen like the op counts.
const (
	refScanNominal = 20.0 * float64(time.Millisecond)
	refJSONNominal = 21.5 * float64(time.Millisecond)
)

const (
	refRows, refDim = 8192, 256 // 8 MB of float32
	refScanPasses   = 16
	refJSONRounds   = 1500
)

// refDoc is the JSON half's fixed document.
type refDoc struct {
	ID    string    `json:"id"`
	Score float32   `json:"score"`
	Tags  []string  `json:"tags"`
	Vec   []float32 `json:"vec"`
}

// reference is the harness's fixed yardstick work.
type reference struct {
	mat [][]float32
	doc refDoc
	// sum keeps the work observable so the compiler cannot drop it.
	sum float32
	// seen collects every sample's slowdown.
	seen []float64
}

func newReference() *reference {
	r := &reference{mat: make([][]float32, refRows)}
	for i := range r.mat {
		r.mat[i] = make([]float32, refDim)
		for j := range r.mat[i] {
			r.mat[i][j] = float32(i*j%97) * 0.01
		}
	}
	r.doc = refDoc{ID: "wikitables-0042", Score: 0.125, Tags: []string{"alpha", "beta", "gamma", "delta"}, Vec: r.mat[3][:64]}
	return r
}

// refDot is the reference's own kernel: it must not be vec.Dot, or making
// vec.Dot faster would move the yardstick.
func refDot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	for i := 0; i+3 < len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	return s0 + s1 + s2 + s3
}

// sample runs the reference work once (~40 ms) and records how much slower
// than nominal the box is right now: the geometric mean of the two halves'
// ratios. 1 is the quiet seed box.
func (r *reference) sample() {
	start := time.Now()
	q := r.mat[17]
	for pass := 0; pass < refScanPasses; pass++ {
		for _, v := range r.mat {
			r.sum += refDot(q, v)
		}
	}
	scan := time.Since(start)

	start = time.Now()
	for i := 0; i < refJSONRounds; i++ {
		b, err := json.Marshal(r.doc)
		if err != nil {
			panic(err) // a fixed struct of strings and floats always marshals
		}
		var back refDoc
		if err := json.Unmarshal(b, &back); err != nil {
			panic(err)
		}
		r.sum += back.Score
	}
	js := time.Since(start)

	r.seen = append(r.seen, math.Sqrt(float64(scan)/refScanNominal*float64(js)/refJSONNominal))
}

// slowdown is the run's one scaling factor: the median of every sample.
func (r *reference) slowdown() float64 { return median(r.seen) }
