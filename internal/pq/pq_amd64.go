//go:build amd64 && !purego

package pq

// The amd64 build runs the index's 4-dim subspaces through SSE2 bodies
// (pq_amd64.s) that return the Go bodies' bits: a lane holds the four dims
// of one subspace (CodeDist) or one dim of four centroids (table rows),
// never a partial sum across subspaces, and every sum is formed in the Go
// body's order (DESIGN.md §10, "PQ kernels"). CodeDist and Lookup index
// memory by a code byte, so they run here only at K = 256, where every byte
// names a centroid; the row kernels serve any K.

const kernelAsm = true

//go:noescape
func codeDist4x256(cents *float32, a, b *byte, m int) float32

//go:noescape
func lookup256(v *float32, code *byte, m int) float32

//go:noescape
func l2sqRow4x4(x, cents, row *float32, n int)

//go:noescape
func dotRow4x4(x, cents, row *float32, n int)

// codeDistAsm is CodeDist at subDim 4, K = 256 over two codes of len(a) ≥ 1.
func codeDistAsm(cents []float32, a, b []byte) float32 {
	_, _ = b[len(a)-1], cents[len(a)*256*4-1]
	return codeDist4x256(&cents[0], &a[0], &b[0], len(a))
}

// lookupAsm is Table.Lookup at K = 256 over a code of len(code) ≥ 1.
func lookupAsm(v []float32, code []byte) float32 {
	_ = v[len(code)*256-1]
	return lookup256(&v[0], &code[0], len(code))
}

// l2sqRowAsm is l2sqRow at subDim 4 for len(row) a positive multiple of 4.
func l2sqRowAsm(x, cents, row []float32) {
	_, _ = x[3], cents[len(row)*4-1]
	l2sqRow4x4(&x[0], &cents[0], &row[0], len(row))
}

// dotRowAsm is dotRow at subDim 4 for len(row) a positive multiple of 4.
func dotRowAsm(x, cents, row []float32) {
	_, _ = x[3], cents[len(row)*4-1]
	dotRow4x4(&x[0], &cents[0], &row[0], len(row))
}
