package umap

import (
	"math"
	"math/rand"
	"testing"

	"semdisco/internal/vec"
)

// clusters generates c well-separated Gaussian clusters of m points in dim
// dimensions and returns the points plus their true cluster labels.
func clusters(c, m, dim int, seed int64) ([][]float32, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, c)
	for i := range centers {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64()) * 10
		}
		centers[i] = v
	}
	var pts [][]float32
	var labels []int
	for i, ctr := range centers {
		for j := 0; j < m; j++ {
			p := vec.Clone(ctr)
			for d := range p {
				p[d] += float32(rng.NormFloat64()) * 0.3
			}
			pts = append(pts, p)
			labels = append(labels, i)
		}
	}
	return pts, labels
}

// neighborPurity measures, for each point, the fraction of its 5 nearest
// embedded neighbours that share its true label.
func neighborPurity(emb [][]float32, labels []int) float64 {
	good, total := 0, 0
	for i := range emb {
		type nd struct {
			j int
			d float32
		}
		var nds []nd
		for j := range emb {
			if i == j {
				continue
			}
			nds = append(nds, nd{j, vec.L2Sq(emb[i], emb[j])})
		}
		for t := 0; t < 5; t++ {
			best := t
			for u := t + 1; u < len(nds); u++ {
				if nds[u].d < nds[best].d {
					best = u
				}
			}
			nds[t], nds[best] = nds[best], nds[t]
			if labels[nds[t].j] == labels[i] {
				good++
			}
			total++
		}
	}
	return float64(good) / float64(total)
}

func TestFitPreservesClusterStructure(t *testing.T) {
	pts, labels := clusters(4, 40, 32, 1)
	emb := Fit(pts, Config{NComponents: 4, NNeighbors: 10, NEpochs: 100, Seed: 1})
	if len(emb) != len(pts) || len(emb[0]) != 4 {
		t.Fatalf("shape %dx%d", len(emb), len(emb[0]))
	}
	purity := neighborPurity(emb, labels)
	if purity < 0.9 {
		t.Fatalf("neighbor purity %.3f < 0.9", purity)
	}
}

func TestFitDeterministic(t *testing.T) {
	pts, _ := clusters(3, 20, 16, 2)
	a := Fit(pts, Config{NComponents: 2, NEpochs: 50, Seed: 7})
	b := Fit(pts, Config{NComponents: 2, NEpochs: 50, Seed: 7})
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed, different embedding")
			}
		}
	}
}

func TestFitFiniteOutput(t *testing.T) {
	pts, _ := clusters(3, 30, 16, 3)
	emb := Fit(pts, Config{NComponents: 3, NEpochs: 80, Seed: 3})
	for i := range emb {
		for _, x := range emb[i] {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("non-finite embedding at %d: %v", i, emb[i])
			}
		}
	}
}

func TestFitTinyInputs(t *testing.T) {
	if got := Fit(nil, Config{}); got != nil {
		t.Fatal("nil input")
	}
	got := Fit([][]float32{{1, 2, 3}}, Config{NComponents: 2})
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("single point shape: %v", got)
	}
	two := Fit([][]float32{{1, 2, 3}, {4, 5, 6}}, Config{NComponents: 2, NEpochs: 10, Seed: 1})
	if len(two) != 2 {
		t.Fatalf("two points: %v", two)
	}
}

func TestFitDuplicatePoints(t *testing.T) {
	pts := make([][]float32, 30)
	for i := range pts {
		pts[i] = []float32{1, 2, 3, 4}
	}
	emb := Fit(pts, Config{NComponents: 2, NEpochs: 20, Seed: 4})
	for i := range emb {
		for _, x := range emb[i] {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatal("duplicates produced non-finite output")
			}
		}
	}
}

func TestApproxKNNPathAgreesOnStructure(t *testing.T) {
	pts, labels := clusters(3, 60, 16, 5)
	// Force the HNSW path by setting the threshold below n.
	emb := Fit(pts, Config{NComponents: 4, NEpochs: 80, Seed: 5, ExactKNNThreshold: 10})
	purity := neighborPurity(emb, labels)
	if purity < 0.85 {
		t.Fatalf("approx-kNN purity %.3f < 0.85", purity)
	}
}

func TestFitABDefaults(t *testing.T) {
	a, b := fitAB(1.0, 0.1)
	// Reference values for spread=1.0, min_dist=0.1 are a≈1.577, b≈0.895.
	if math.Abs(a-1.577) > 0.25 || math.Abs(b-0.895) > 0.15 {
		t.Fatalf("fitAB(1.0, 0.1) = %.3f, %.3f; want ≈ 1.577, 0.895", a, b)
	}
}

func TestSmoothKNNDistTargets(t *testing.T) {
	ds := []float32{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9}
	rho := ds[0]
	nbrs := make([]vec.Neighbor, len(ds))
	for i, d := range ds {
		nbrs[i] = vec.Neighbor{ID: int32(i), Dist: d}
	}
	sigma := smoothKNNDist(nbrs, rho)
	var sum float64
	for _, d := range ds {
		x := float64(d - rho)
		if x < 0 {
			x = 0
		}
		sum += math.Exp(-x / sigma)
	}
	if math.Abs(sum-math.Log2(8)) > 1e-3 {
		t.Fatalf("calibrated sum %.4f want %.4f", sum, math.Log2(8))
	}
}

func TestPCARecoverVariance(t *testing.T) {
	// Points on a noisy 2D plane inside 10D space: the top-2 PCA projection
	// must retain the separation between two groups.
	rng := rand.New(rand.NewSource(6))
	var pts [][]float32
	var labels []int
	for g := 0; g < 2; g++ {
		for i := 0; i < 50; i++ {
			p := make([]float32, 10)
			p[0] = float32(g*20) + float32(rng.NormFloat64())
			p[1] = float32(rng.NormFloat64()) * 5
			for d := 2; d < 10; d++ {
				p[d] = float32(rng.NormFloat64()) * 0.01
			}
			pts = append(pts, p)
			labels = append(labels, g)
		}
	}
	emb := PCA(pts, 2, 6)
	purity := neighborPurity(emb, labels)
	if purity < 0.95 {
		t.Fatalf("PCA purity %.3f", purity)
	}
}

func TestPCAShapeAndEdgeCases(t *testing.T) {
	if got := PCA(nil, 2, 1); got != nil {
		t.Fatal("nil input")
	}
	got := PCA([][]float32{{1, 2}}, 5, 1)
	if len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("k clamped to dim: %v", got)
	}
	// Constant data: must not NaN.
	pts := [][]float32{{3, 3}, {3, 3}, {3, 3}}
	for _, row := range PCA(pts, 2, 1) {
		for _, x := range row {
			if math.IsNaN(float64(x)) {
				t.Fatal("constant data produced NaN")
			}
		}
	}
}

func TestPCADeterministic(t *testing.T) {
	pts, _ := clusters(2, 30, 8, 7)
	a := PCA(pts, 3, 9)
	b := PCA(pts, 3, 9)
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("PCA not deterministic")
			}
		}
	}
}

func BenchmarkFit500(b *testing.B) {
	pts, _ := clusters(5, 100, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fit(pts, Config{NComponents: 8, NEpochs: 50, Seed: 8})
	}
}

// BenchmarkFit3200x256 is the reduction the CTS benchmark workload pays for:
// 3,200 points at dim 256 into 16 dimensions, 200 epochs, one worker.
func BenchmarkFit3200x256(b *testing.B) {
	pts, _ := clusters(40, 80, 256, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Fit(pts, Config{Seed: 8, Workers: 1})
	}
}

// TestFastPowWithinOneULP holds pow32 to float32(math.Pow) over the range
// the SGD feeds it — squared layout distances from coincident to far apart,
// exponents around the b−1 and b of the default curve (b ≈ 0.9) — and to
// the exact path outside it.
func TestFastPowWithinOneULP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var worst float64
	for i := 0; i < 2_000_000; i++ {
		x := float32(math.Exp(math.Log(1e-12) + rng.Float64()*(math.Log(1e5)-math.Log(1e-12))))
		p := float32(-0.7 + 2*rng.Float64())
		want := float64(float32(math.Pow(float64(x), float64(p))))
		rel := math.Abs(float64(pow32(x, p))-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1.2e-7 {
		t.Errorf("worst relative error %.3g over 2M draws, want <= 1.2e-7 (one float32 ulp)", worst)
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for _, c := range [][2]float32{
		{0, 0.5}, {0, -0.5}, {-1, 2}, {-1, 0.5}, {inf, 0.5}, {inf, -0.5}, {nan, 1}, {2, nan},
		{2, inf}, {0.5, inf}, {1e-40, 0.5}, {1e-40, 1.2}, {1e30, 1.3}, {1e30, 2}, {1e-30, 1.3},
		{1e-30, 2}, {1, 0.79}, {7, 0}, {math.MaxFloat32, 1}, {math.SmallestNonzeroFloat32, 1},
	} {
		got, want := pow32(c[0], c[1]), float32(math.Pow(float64(c[0]), float64(c[1])))
		if got != want && !(got != got && want != want) {
			t.Errorf("pow32(%g, %g) = %g, want %g", c[0], c[1], got, want)
		}
	}
}

func BenchmarkPow32(b *testing.B) {
	xs := make([]float32, 1024)
	rng := rand.New(rand.NewSource(32))
	for i := range xs {
		xs[i] = float32(math.Exp(rng.Float64()*16 - 10))
	}
	for _, k := range []struct {
		name string
		fn   func(x, p float32) float32
	}{
		{"fast", pow32},
		{"mathPow", func(x, p float32) float32 { return float32(math.Pow(float64(x), float64(p))) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += k.fn(xs[i&1023], 0.79)
			}
			benchSink = sink
		})
		// Each call's argument depends on the previous result, as in the
		// SGD, where a coefficient moves the point the next distance is
		// measured from: this one times latency, the other throughput.
		b.Run(k.name+"/chained", func(b *testing.B) {
			x := float32(1)
			for i := 0; i < b.N; i++ {
				x = k.fn(x+xs[i&1023], 0.79)
			}
			benchSink = x
		})
	}
}

var benchSink float32

func TestTransformPlacesNewPointsNearTheirCluster(t *testing.T) {
	pts, labels := clusters(3, 40, 16, 20)
	model := FitModel(pts, Config{NComponents: 4, NEpochs: 100, Seed: 20})
	if model.Len() != len(pts) {
		t.Fatalf("Len=%d", model.Len())
	}
	// Perturbed copies of training points must land nearest their source's
	// cluster region.
	rng := rand.New(rand.NewSource(21))
	correct := 0
	const probes = 30
	for trial := 0; trial < probes; trial++ {
		src := rng.Intn(len(pts))
		p := vec.Clone(pts[src])
		for d := range p {
			p[d] += float32(rng.NormFloat64()) * 0.1
		}
		emb := model.Transform(p)
		// Nearest training embedding determines the predicted cluster.
		best, bestD := 0, float32(math.MaxFloat32)
		for i, o := range model.Coordinates() {
			if d := vec.L2Sq(emb, o); d < bestD {
				best, bestD = i, d
			}
		}
		if labels[best] == labels[src] {
			correct++
		}
	}
	if correct < probes*9/10 {
		t.Fatalf("transform placed only %d/%d probes in the right cluster", correct, probes)
	}
}

func TestTransformFiniteAndDeterministic(t *testing.T) {
	pts, _ := clusters(2, 20, 8, 22)
	model := FitModel(pts, Config{NComponents: 2, NEpochs: 40, Seed: 22})
	p := []float32{0, 0, 0, 0, 0, 0, 0, 0}
	a := model.Transform(p)
	b := model.Transform(p)
	for d := range a {
		if a[d] != b[d] {
			t.Fatal("Transform not deterministic")
		}
		if math.IsNaN(float64(a[d])) || math.IsInf(float64(a[d]), 0) {
			t.Fatal("Transform produced non-finite output")
		}
	}
	batch := model.TransformAll([][]float32{p, pts[0]})
	if len(batch) != 2 || len(batch[0]) != 2 {
		t.Fatalf("TransformAll shape: %v", batch)
	}
}

func TestTransformExactTrainingPoint(t *testing.T) {
	// A training point itself transforms very near its own embedding.
	pts, _ := clusters(2, 25, 8, 23)
	model := FitModel(pts, Config{NComponents: 3, NEpochs: 60, Seed: 23})
	emb := model.Transform(pts[5])
	own := model.Coordinates()[5]
	// Its own embedding dominates the weighted mean (distance ≈ 0).
	if vec.L2(emb, own) > vec.Norm(own)*0.5+1 {
		t.Fatalf("self transform too far: %v vs %v", emb, own)
	}
}

// TestParallelFitPreservesClusterStructure runs the sharded exact kNN
// (Workers 4) and checks the layout keeps the clusters apart.
func TestParallelFitPreservesClusterStructure(t *testing.T) {
	pts, labels := clusters(4, 40, 32, 1)
	emb := Fit(pts, Config{NComponents: 4, NNeighbors: 10, NEpochs: 100, Seed: 1, Workers: 4})
	if len(emb) != len(pts) || len(emb[0]) != 4 {
		t.Fatalf("shape %dx%d", len(emb), len(emb[0]))
	}
	for i := range emb {
		for _, x := range emb[i] {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatalf("non-finite coordinate at %d", i)
			}
		}
	}
	purity := neighborPurity(emb, labels)
	if purity < 0.9 {
		t.Fatalf("parallel neighbor purity %.3f < 0.9", purity)
	}
}

// TestFitWorkerCountInvariant: up to ExactKNNThreshold points the kNN
// lists are the same at every worker count and the SGD is serial, so one
// seed gives one layout, bit for bit, whatever Workers says.
func TestFitWorkerCountInvariant(t *testing.T) {
	pts, _ := clusters(4, 40, 32, 3)
	fit := func(workers int) [][]float32 {
		return Fit(pts, Config{NComponents: 4, NNeighbors: 10, NEpochs: 60, Seed: 3, Workers: workers})
	}
	want := fit(1)
	for _, workers := range []int{2, 4} {
		got := fit(workers)
		for i := range want {
			for d := range want[i] {
				if math.Float32bits(got[i][d]) != math.Float32bits(want[i][d]) {
					t.Fatalf("workers=%d: row %d dim %d = %v, want %v (workers=1)", workers, i, d, got[i][d], want[i][d])
				}
			}
		}
	}
}

// TestParallelApproxKNNPath drives Workers > 1 through the HNSW-approximate
// kNN branch (threshold forced below n).
func TestParallelApproxKNNPath(t *testing.T) {
	pts, labels := clusters(3, 50, 24, 6)
	emb := Fit(pts, Config{
		NComponents: 4, NNeighbors: 10, NEpochs: 80, Seed: 6,
		ExactKNNThreshold: 10, Workers: 4,
	})
	purity := neighborPurity(emb, labels)
	if purity < 0.85 {
		t.Fatalf("parallel approx-kNN purity %.3f < 0.85", purity)
	}
}
