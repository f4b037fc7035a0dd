//go:build !amd64 || purego

package vec

// Without the assembly (another GOARCH, or the purego tag) every kernel runs
// its pure-Go body: dotGo/l2sqGo for a pair, the 4-query bodies in batch.go
// for a block, which carry the same bit-identity contract (each query's
// accumulator chains mirror dotGo/l2sqGo exactly).

const kernelAsm = false

// The assembly wrappers are never called when kernelAsm is false; the stubs
// exist so vec.go, batch.go and row.go compile on every GOARCH.
func dotAsm(a, b []float32) float32 {
	panic("vec: assembly kernel unavailable in this build")
}

func l2sqAsm(a, b []float32) float32 {
	panic("vec: assembly kernel unavailable in this build")
}

func addScaledAsm(a []float32, s float32, b []float32) {
	panic("vec: assembly kernel unavailable in this build")
}

func dot4Asm(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	panic("vec: assembly kernel unavailable in this build")
}

func l2sq4Asm(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	panic("vec: assembly kernel unavailable in this build")
}

func l2sqRowAsm(x, cents, row []float32) {
	panic("vec: assembly kernel unavailable in this build")
}

func dotRowAsm(x, cents, row []float32) {
	panic("vec: assembly kernel unavailable in this build")
}
