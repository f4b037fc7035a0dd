//go:build amd64 && !purego

package pq

// The amd64 build runs the index's 4-dim subspaces through SSE2 bodies
// (pq_amd64.s) that return the Go bodies' bits: a lane holds the four dims
// of one subspace or one slot's running sum, never a partial sum across
// subspaces, and every sum is formed in the Go body's order (DESIGN.md §10,
// "PQ kernels"). CodeDist, Lookup and LookupBatch index memory by a code
// byte, so they run here only at K = 256, where every byte names a
// centroid. The table rows are vec.L2SqRow and vec.DotRow, whose 4-dim SSE2
// bodies serve any K.

const kernelAsm = true

//go:noescape
func codeDist4x256(cents *float32, a, b *byte, m, stride int) float32

//go:noescape
func lookup256(v *float32, code *byte, m, stride int) float32

//go:noescape
func lookupBlocks256(v *float32, blocks *byte, m, nblocks int, out *float32)

// codeDistAsm is CodeDist at subDim 4, K = 256 over two codes of m ≥ 1
// bytes at stride BlockSlots.
func codeDistAsm(cents []float32, a, b []byte, m int) float32 {
	_, _, _ = a[(m-1)*BlockSlots], b[(m-1)*BlockSlots], cents[m*256*4-1]
	return codeDist4x256(&cents[0], &a[0], &b[0], m, BlockSlots)
}

// lookupAsm is Table.Lookup at K = 256 over a code of m ≥ 1 bytes at
// stride BlockSlots.
func lookupAsm(v []float32, code []byte, m int) float32 {
	_, _ = code[(m-1)*BlockSlots], v[m*256-1]
	return lookup256(&v[0], &code[0], m, BlockSlots)
}

// lookupBlocksAsm is Table.lookupBlocks at K = 256: len(out)/BlockSlots
// whole blocks of m ≥ 1 subspaces.
func lookupBlocksAsm(v []float32, blocks []byte, m int, out []float32) {
	nb := len(out) / BlockSlots
	if nb == 0 {
		return
	}
	_, _ = blocks[nb*BlockSlots*m-1], v[m*256-1]
	lookupBlocks256(&v[0], &blocks[0], m, nb, &out[0])
}
