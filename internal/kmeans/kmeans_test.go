package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"semdisco/internal/vec"
)

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(centers [][]float32, n int, spread float32, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float32
	for _, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float32, len(c))
			for d := range p {
				p[d] = c[d] + (rng.Float32()*2-1)*spread
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestSeparatedBlobsRecovered(t *testing.T) {
	centers := [][]float32{{0, 0}, {10, 10}, {-10, 10}}
	pts := blobs(centers, 50, 0.5, 1)
	res := Run(pts, Config{K: 3, Seed: 1})
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids=%d", len(res.Centroids))
	}
	// Every true center must have a learned centroid within 1.0.
	for _, c := range centers {
		found := false
		for _, got := range res.Centroids {
			if vec.L2(c, got) < 1.0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no centroid near %v: %v", c, res.Centroids)
		}
	}
	// All points of the same blob must share an assignment.
	for b := 0; b < 3; b++ {
		first := res.Assignment[b*50]
		for i := 0; i < 50; i++ {
			if res.Assignment[b*50+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	pts := blobs([][]float32{{0, 0}, {5, 5}, {10, 0}, {0, 10}}, 30, 1.0, 2)
	i1 := Run(pts, Config{K: 1, Seed: 3}).Inertia
	i4 := Run(pts, Config{K: 4, Seed: 3}).Inertia
	if i4 >= i1 {
		t.Fatalf("inertia should decrease with K: k1=%v k4=%v", i1, i4)
	}
}

func TestDeterministic(t *testing.T) {
	pts := blobs([][]float32{{0, 0}, {3, 3}}, 20, 0.5, 4)
	a := Run(pts, Config{K: 2, Seed: 9})
	b := Run(pts, Config{K: 2, Seed: 9})
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed must give same assignment")
		}
	}
}

func TestKLargerThanPoints(t *testing.T) {
	pts := [][]float32{{0, 0}, {1, 1}}
	res := Run(pts, Config{K: 5, Seed: 1})
	if len(res.Centroids) != 5 {
		t.Fatalf("want 5 centroids, got %d", len(res.Centroids))
	}
	for _, a := range res.Assignment {
		if a < 0 || a >= 5 {
			t.Fatalf("assignment out of range: %d", a)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	res := Run([][]float32{{2, 3}}, Config{K: 1, Seed: 1})
	if res.Centroids[0][0] != 2 || res.Centroids[0][1] != 3 {
		t.Fatalf("centroid=%v", res.Centroids[0])
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia=%v", res.Inertia)
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := make([][]float32, 10)
	for i := range pts {
		pts[i] = []float32{1, 2, 3}
	}
	res := Run(pts, Config{K: 3, Seed: 5})
	if res.Inertia != 0 {
		t.Fatalf("identical points must give zero inertia, got %v", res.Inertia)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("K=0", func() { Run([][]float32{{1}}, Config{K: 0}) })
	mustPanic("empty", func() { Run(nil, Config{K: 1}) })
}

// TestWorkerCountInvariance pins the determinism contract: for a fixed
// seed the result must be bit-identical for every worker count, because
// only per-point computations are sharded and every float reduction runs
// serially in point order. Uses > parallelMinPoints points so the sharded
// paths actually engage.
func TestWorkerCountInvariance(t *testing.T) {
	pts := blobs([][]float32{{0, 0, 0}, {6, 6, 6}, {-6, 6, 0}, {0, -6, 6}}, 120, 1.5, 11)
	if len(pts) < parallelMinPoints {
		t.Fatalf("test corpus too small (%d) to engage the parallel path", len(pts))
	}
	base := Run(pts, Config{K: 16, Seed: 11, Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		got := Run(pts, Config{K: 16, Seed: 11, Workers: workers})
		if got.Inertia != base.Inertia || got.Iterations != base.Iterations {
			t.Fatalf("workers=%d: inertia %v iters %d, want %v / %d",
				workers, got.Inertia, got.Iterations, base.Inertia, base.Iterations)
		}
		for i := range base.Assignment {
			if got.Assignment[i] != base.Assignment[i] {
				t.Fatalf("workers=%d: assignment[%d] diverged", workers, i)
			}
		}
		for c := range base.Centroids {
			for d := range base.Centroids[c] {
				if got.Centroids[c][d] != base.Centroids[c][d] {
					t.Fatalf("workers=%d: centroid %d dim %d not bit-identical", workers, c, d)
				}
			}
		}
	}
}

func benchKMeans(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(21))
	pts := make([][]float32, 2048)
	for i := range pts {
		v := make([]float32, 32)
		for d := range v {
			v[d] = rng.Float32()
		}
		pts[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(pts, Config{K: 64, Seed: 21, MaxIter: 10, Workers: workers})
	}
}

func BenchmarkRunSerial(b *testing.B)   { benchKMeans(b, 1) }
func BenchmarkRunParallel(b *testing.B) { benchKMeans(b, runtime.GOMAXPROCS(0)) }

func TestAssignmentIsNearest(t *testing.T) {
	pts := blobs([][]float32{{0, 0}, {8, 8}}, 40, 1.0, 7)
	res := Run(pts, Config{K: 2, Seed: 7})
	for i, p := range pts {
		best, bestD := 0, vec.L2Sq(p, res.Centroids[0])
		for c := 1; c < len(res.Centroids); c++ {
			if d := vec.L2Sq(p, res.Centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if res.Assignment[i] != best {
			t.Fatalf("point %d assigned %d but nearest is %d", i, res.Assignment[i], best)
		}
	}
}

// mixedPoints returns n points of dim d with mixed magnitudes, so that the
// order of additions shows in the bits, drawn from a pool of `distinct`
// points when distinct > 0: duplicates make ties and empty clusters.
func mixedPoints(n, d, distinct int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	pool := n
	if distinct > 0 {
		pool = distinct
	}
	base := make([][]float32, pool)
	for i := range base {
		base[i] = make([]float32, d)
		for j := range base[i] {
			base[i][j] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2)))
		}
	}
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = append([]float32(nil), base[rng.Intn(pool)]...)
	}
	return pts
}

// sameResult fails unless got carries want's bits: every centroid
// coordinate, every assignment, the inertia and the iteration count.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) || got.Iterations != want.Iterations {
		t.Fatalf("%s: inertia %v after %d iterations, reference %v after %d",
			what, got.Inertia, got.Iterations, want.Inertia, want.Iterations)
	}
	if !slices.Equal(got.Assignment, want.Assignment) {
		t.Fatalf("%s: assignments differ from the reference", what)
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, reference %d", what, len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for j, w := range want.Centroids[c] {
			if g := got.Centroids[c][j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s: centroid %d dim %d = %#08x, reference %#08x",
					what, c, j, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// TestRunMatchesPairLoop holds Run to refRun, the per-pair loop it
// replaced, by bit pattern at every worker count: across dims below, at and
// above the 4-dim row kernel and the 8-wide unroll; with K > n (the padding
// path, whose duplicate centroids always leave a cluster empty and reseat
// it) and with duplicate points; and with one NaN, ±Inf, −0 or subnormal
// coordinate at a time, which the assignment's argmin, the seeding's D²
// update and the reseat's farthest point must all treat as the pair loop
// did. Point counts clear parallelMinPoints so the sharded paths run.
func TestRunMatchesPairLoop(t *testing.T) {
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), subnormal,
	}
	check := func(what string, pts [][]float32, cfg Config) {
		t.Helper()
		want := refRun(pts, cfg)
		for _, w := range []int{1, 2, 4} {
			cfg.Workers = w
			sameResult(t, fmt.Sprintf("%s, workers %d", what, w), Run(pts, cfg), want)
		}
	}
	for _, d := range []int{1, 3, 4, 5, 8, 12} {
		pts := mixedPoints(300, d, 0, int64(d))
		check(fmt.Sprintf("dim %d", d), pts, Config{K: 13, Seed: int64(d)})
		check(fmt.Sprintf("dim %d, K > n", d), pts[:9], Config{K: 12, Seed: int64(d)})
		check(fmt.Sprintf("dim %d, 20 distinct points", d), mixedPoints(300, d, 20, int64(d)), Config{K: 24, Seed: int64(d)})
		for _, sp := range specials {
			for _, at := range [][2]int{{0, 0}, {150, d / 2}, {299, d - 1}} {
				keep := pts[at[0]][at[1]]
				pts[at[0]][at[1]] = sp
				check(fmt.Sprintf("dim %d, point %d dim %d = %v", d, at[0], at[1], sp), pts, Config{K: 13, Seed: int64(d), MaxIter: 6})
				pts[at[0]][at[1]] = keep
			}
		}
	}
	// The ANNS index's training shape: one 4-dim subspace of 512 vectors
	// into 256 centroids, PQ's iteration cap.
	check("PQ shape", mixedPoints(512, 4, 0, 99), Config{K: 256, Seed: 99, MaxIter: 15})
}

// BenchmarkRun512x4K256 times one PQ subspace's training in the ANNS
// index's shape (512 training vectors, 4-dim subspaces, K = 256, PQ's
// iteration cap) through the row kernel beside the per-pair loop it
// replaced.
func BenchmarkRun512x4K256(b *testing.B) {
	pts := mixedPoints(512, 4, 0, 7)
	cfg := Config{K: 256, Seed: 7, MaxIter: 15}
	for _, bc := range []struct {
		name string
		run  func([][]float32, Config) Result
	}{{"row", Run}, {"pair", refRun}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.run(pts, cfg)
			}
		})
	}
}
