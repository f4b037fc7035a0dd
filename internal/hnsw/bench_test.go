package hnsw

import (
	"fmt"
	"runtime"
	"testing"
)

// benchBuild measures graph construction over n random unit vectors.
func benchBuild(b *testing.B, n, workers int) {
	pts := randomPoints(n, 32, 17)
	dist := l2DistFn(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(Config{M: 16, EfConstruction: 100, Seed: 17}, dist, nil)
		ix.AddBatch(n, workers)
	}
}

func BenchmarkBuild2k(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchBuild(b, 2000, workers)
		})
	}
}

func BenchmarkBuild500(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchBuild(b, 500, workers)
		})
	}
}
