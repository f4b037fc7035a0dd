//go:build !amd64 || purego

package pq

// Without the assembly (another GOARCH, or the purego tag) CodeDist,
// Lookup and LookupBatch run their Go bodies in pq.go. The stubs are never
// called; they exist so pq.go compiles on every GOARCH.

const kernelAsm = false

func codeDistAsm(cents []float32, a, b []byte, m int) float32 {
	panic("pq: assembly kernel unavailable in this build")
}

func lookupAsm(v []float32, code []byte, m int) float32 {
	panic("pq: assembly kernel unavailable in this build")
}

func lookupBlocksAsm(v []float32, blocks []byte, m int, out []float32) {
	panic("pq: assembly kernel unavailable in this build")
}
