//go:build amd64 && !purego

package pq

// The amd64 build runs the index's 4-dim subspaces through SSE2 bodies
// (pq_amd64.s) that return the Go bodies' bits: a lane holds the four dims
// of one subspace, never a partial sum across subspaces, and every sum is
// formed in the Go body's order (DESIGN.md §10, "PQ kernels"). CodeDist and
// Lookup index memory by a code byte, so they run here only at K = 256,
// where every byte names a centroid. The table rows are vec.L2SqRow and
// vec.DotRow, whose 4-dim SSE2 bodies serve any K.

const kernelAsm = true

//go:noescape
func codeDist4x256(cents *float32, a, b *byte, m int) float32

//go:noescape
func lookup256(v *float32, code *byte, m int) float32

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
