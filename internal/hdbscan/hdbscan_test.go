package hdbscan

import (
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/vec"
)

func gauss2D(rng *rand.Rand, cx, cy, sd float32, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = []float32{
			cx + float32(rng.NormFloat64())*sd,
			cy + float32(rng.NormFloat64())*sd,
		}
	}
	return out
}

func TestThreeBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.3, 60)...)
	pts = append(pts, gauss2D(rng, 10, 10, 0.3, 60)...)
	pts = append(pts, gauss2D(rng, -10, 10, 0.3, 60)...)
	res := Cluster(pts, Config{MinClusterSize: 10})
	if res.NumClusters != 3 {
		t.Fatalf("NumClusters=%d want 3 (labels=%v)", res.NumClusters, hist(res.Labels))
	}
	// Points in the same blob must overwhelmingly share a label.
	for blob := 0; blob < 3; blob++ {
		counts := map[int]int{}
		for i := 0; i < 60; i++ {
			counts[res.Labels[blob*60+i]]++
		}
		if maxCount(counts) < 55 {
			t.Fatalf("blob %d fragmented: %v", blob, counts)
		}
	}
	// Different blobs must have different labels.
	l0, l1, l2 := majority(res.Labels[0:60]), majority(res.Labels[60:120]), majority(res.Labels[120:180])
	if l0 == l1 || l1 == l2 || l0 == l2 {
		t.Fatalf("blobs merged: %d %d %d", l0, l1, l2)
	}
}

func TestNoiseDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.2, 80)...)
	pts = append(pts, gauss2D(rng, 20, 20, 0.2, 80)...)
	// Sprinkle far-away isolated points.
	outliers := [][]float32{{100, 100}, {-100, 50}, {50, -100}, {200, 0}, {0, 200}}
	pts = append(pts, outliers...)
	res := Cluster(pts, Config{MinClusterSize: 10})
	noise := 0
	for _, l := range res.Labels[160:] {
		if l == Noise {
			noise++
		}
	}
	if noise < 4 {
		t.Fatalf("only %d/5 outliers labelled noise (labels=%v)", noise, res.Labels[160:])
	}
	for _, i := range []int{160, 161, 162, 163, 164} {
		if res.Labels[i] == Noise && res.Probabilities[i] != 0 {
			t.Fatalf("noise point %d has probability %v", i, res.Probabilities[i])
		}
	}
}

func TestMedoidsAreMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.5, 50)...)
	pts = append(pts, gauss2D(rng, 8, 8, 0.5, 50)...)
	res := Cluster(pts, Config{MinClusterSize: 8})
	if res.NumClusters < 2 {
		t.Fatalf("NumClusters=%d", res.NumClusters)
	}
	if len(res.Medoids) != res.NumClusters {
		t.Fatalf("medoids=%d clusters=%d", len(res.Medoids), res.NumClusters)
	}
	for c, m := range res.Medoids {
		if m < 0 || m >= len(pts) {
			t.Fatalf("medoid %d out of range: %d", c, m)
		}
		if res.Labels[m] != c {
			t.Fatalf("medoid of cluster %d labelled %d", c, res.Labels[m])
		}
	}
}

func TestMedoidMinimizesTotalDistance(t *testing.T) {
	// A tight line of points: the middle one is the medoid.
	pts := [][]float32{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0},
		{100, 0}, {101, 0}, {102, 0}, {103, 0}, {104, 0}}
	res := Cluster(pts, Config{MinClusterSize: 3, MinSamples: 2})
	if res.NumClusters != 2 {
		t.Skipf("clustering produced %d clusters; medoid check needs 2", res.NumClusters)
	}
	for c := 0; c < 2; c++ {
		m := res.Medoids[c]
		var members []int
		for i, l := range res.Labels {
			if l == c {
				members = append(members, i)
			}
		}
		mSum := sumDist(pts, m, members)
		for _, cand := range members {
			if s := sumDist(pts, cand, members); s < mSum-1e-9 {
				t.Fatalf("cluster %d: member %d beats medoid %d (%v < %v)", c, cand, m, s, mSum)
			}
		}
	}
}

func TestNonConvexShapes(t *testing.T) {
	// Two concentric rings — k-means cannot separate these; HDBSCAN must.
	rng := rand.New(rand.NewSource(4))
	var pts [][]float32
	ring := func(r float32, n int) {
		for i := 0; i < n; i++ {
			a := rng.Float64() * 2 * math.Pi
			pts = append(pts, []float32{
				r*float32(math.Cos(a)) + float32(rng.NormFloat64())*0.1,
				r*float32(math.Sin(a)) + float32(rng.NormFloat64())*0.1,
			})
		}
	}
	ring(2, 150)
	ring(10, 300)
	res := Cluster(pts, Config{MinClusterSize: 15})
	if res.NumClusters != 2 {
		t.Fatalf("rings: NumClusters=%d want 2", res.NumClusters)
	}
	inner := majority(res.Labels[:150])
	outer := majority(res.Labels[150:])
	if inner == outer {
		t.Fatal("rings merged")
	}
}

func TestSmallInputs(t *testing.T) {
	if res := Cluster(nil, Config{}); len(res.Labels) != 0 {
		t.Fatal("empty input")
	}
	res := Cluster([][]float32{{1, 2}}, Config{})
	if len(res.Labels) != 1 || res.Labels[0] != Noise {
		t.Fatalf("single point: %v", res.Labels)
	}
	res = Cluster([][]float32{{1, 2}, {1.1, 2}}, Config{MinClusterSize: 5})
	if res.NumClusters != 0 {
		t.Fatalf("two points cannot form a cluster of size 5: %v", res.Labels)
	}
}

func TestAllDuplicatePoints(t *testing.T) {
	pts := make([][]float32, 20)
	for i := range pts {
		pts[i] = []float32{3, 3}
	}
	res := Cluster(pts, Config{MinClusterSize: 5})
	for i, l := range res.Labels {
		if l != res.Labels[0] {
			t.Fatalf("duplicate points split: labels[%d]=%d", i, l)
		}
	}
	for _, p := range res.Probabilities {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("bad probability %v", p)
		}
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 1, 40)...)
	pts = append(pts, gauss2D(rng, 10, 0, 1, 40)...)
	a := Cluster(pts, Config{MinClusterSize: 8})
	b := Cluster(pts, Config{MinClusterSize: 8})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("non-deterministic labels")
		}
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := gauss2D(rng, 0, 0, 1, 100)
	res := Cluster(pts, Config{MinClusterSize: 10})
	for i, p := range res.Probabilities {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: p[%d]=%v", i, p)
		}
	}
}

func TestStabilitiesReported(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.3, 50)...)
	pts = append(pts, gauss2D(rng, 10, 10, 0.3, 50)...)
	res := Cluster(pts, Config{MinClusterSize: 10})
	if len(res.Stabilities) != res.NumClusters {
		t.Fatalf("stabilities=%d clusters=%d", len(res.Stabilities), res.NumClusters)
	}
	for c, s := range res.Stabilities {
		if s <= 0 {
			t.Fatalf("cluster %d stability %v", c, s)
		}
	}
}

func TestDensityContrast(t *testing.T) {
	// One dense cluster embedded in a diffuse background: the dense core
	// must come out as a cluster, most of the background as noise.
	rng := rand.New(rand.NewSource(8))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.1, 80)...) // dense
	for i := 0; i < 40; i++ {                         // diffuse
		pts = append(pts, []float32{rng.Float32()*100 - 50, rng.Float32()*100 - 50})
	}
	// With one cluster plus background, the root is the only candidate, so
	// AllowSingleCluster is required (this mirrors the reference library's
	// allow_single_cluster flag).
	res := Cluster(pts, Config{MinClusterSize: 10, AllowSingleCluster: true})
	denseLabel := majority(res.Labels[:80])
	if denseLabel == Noise {
		t.Fatal("dense core labelled noise")
	}
	noiseCount := 0
	for _, l := range res.Labels[80:] {
		if l == Noise {
			noiseCount++
		}
	}
	if noiseCount < 25 {
		t.Fatalf("only %d/40 background points labelled noise", noiseCount)
	}
}

func sumDist(pts [][]float32, from int, members []int) float64 {
	var s float64
	for _, m := range members {
		s += float64(vec.L2(pts[from], pts[m]))
	}
	return s
}

func majority(labels []int) int {
	counts := map[int]int{}
	for _, l := range labels {
		counts[l]++
	}
	best, bestC := Noise, -1
	for l, c := range counts {
		if c > bestC {
			best, bestC = l, c
		}
	}
	return best
}

func maxCount(counts map[int]int) int {
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}

func hist(labels []int) map[int]int {
	h := map[int]int{}
	for _, l := range labels {
		h[l]++
	}
	return h
}

func BenchmarkCluster1000(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var pts [][]float32
	for c := 0; c < 5; c++ {
		pts = append(pts, gauss2D(rng, float32(c*10), 0, 0.5, 200)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Cluster(pts, Config{MinClusterSize: 15})
	}
}

// BenchmarkCoreDistances4096x16 is the core-distance pass at the shape the
// CTS build runs it: SampleCap points in the 16-dimensional reduced space,
// k = 8, one worker.
func BenchmarkCoreDistances4096x16(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := make([][]float32, 4096)
	for i := range pts {
		pts[i] = make([]float32, 16)
		for d := range pts[i] {
			pts[i][d] = float32(rng.NormFloat64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coreDistances(pts, 8, 1)
	}
}

func TestSilhouette(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var pts [][]float32
	var labels []int
	// Two tight, far-apart blobs: silhouette near 1.
	for b := 0; b < 2; b++ {
		blob := gauss2D(rng, float32(b*100), 0, 0.5, 30)
		pts = append(pts, blob...)
		for range blob {
			labels = append(labels, b)
		}
	}
	if s := Silhouette(pts, labels); s < 0.9 {
		t.Fatalf("separated blobs silhouette=%v", s)
	}
	// Deliberately swap labels of two halves of one blob region:
	// silhouette must drop sharply.
	bad := append([]int{}, labels...)
	for i := 0; i < 15; i++ {
		bad[i] = 1
	}
	if s := Silhouette(pts, bad); s > 0.5 {
		t.Fatalf("misassigned silhouette=%v should be low", s)
	}
	// Single cluster: undefined, returns 0.
	one := make([]int, len(pts))
	if s := Silhouette(pts, one); s != 0 {
		t.Fatalf("single-cluster silhouette=%v", s)
	}
	// All noise: 0.
	noise := make([]int, len(pts))
	for i := range noise {
		noise[i] = Noise
	}
	if s := Silhouette(pts, noise); s != 0 {
		t.Fatalf("all-noise silhouette=%v", s)
	}
}

func TestHDBSCANSilhouetteOnItsOwnClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.3, 50)...)
	pts = append(pts, gauss2D(rng, 20, 20, 0.3, 50)...)
	res := Cluster(pts, Config{MinClusterSize: 10})
	if res.NumClusters != 2 {
		t.Skipf("clusters=%d", res.NumClusters)
	}
	if s := Silhouette(pts, res.Labels); s < 0.8 {
		t.Fatalf("HDBSCAN's own clustering scores silhouette %v", s)
	}
}

// TestWorkerCountInvariance pins the determinism contract: the sharded
// core-distance, Prim and medoid stages must be bit-identical to the serial
// run for every worker count. Uses > parallelMinPoints points so the
// parallel gates actually open.
func TestWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var pts [][]float32
	pts = append(pts, gauss2D(rng, 0, 0, 0.4, 120)...)
	pts = append(pts, gauss2D(rng, 6, 6, 0.4, 120)...)
	pts = append(pts, gauss2D(rng, -6, 6, 0.4, 120)...)
	if len(pts) < parallelMinPoints {
		t.Fatalf("test corpus too small (%d) to engage the parallel path", len(pts))
	}
	base := Cluster(pts, Config{MinClusterSize: 8, Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		got := Cluster(pts, Config{MinClusterSize: 8, Workers: workers})
		if got.NumClusters != base.NumClusters {
			t.Fatalf("workers=%d: %d clusters, want %d", workers, got.NumClusters, base.NumClusters)
		}
		for i := range base.Labels {
			if got.Labels[i] != base.Labels[i] {
				t.Fatalf("workers=%d: label[%d] diverged", workers, i)
			}
			if got.Probabilities[i] != base.Probabilities[i] {
				t.Fatalf("workers=%d: probability[%d] not bit-identical", workers, i)
			}
		}
		for c := range base.Medoids {
			if got.Medoids[c] != base.Medoids[c] {
				t.Fatalf("workers=%d: medoid[%d] = %d, want %d", workers, c, got.Medoids[c], base.Medoids[c])
			}
			if got.Stabilities[c] != base.Stabilities[c] {
				t.Fatalf("workers=%d: stability[%d] diverged", workers, c)
			}
		}
	}
}
