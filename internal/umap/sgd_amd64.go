//go:build amd64 && !purego

package umap

// At NComponents = 16, CTS's reduced dimension, the SGD's three per-edge
// steps run as SSE2 bodies (sgd_amd64.s) that return the Go loops' bits:
// every lane performs the Go loop's float32 operations on one coordinate
// in the same order, the squared distance adds its lanes in l2sqGo's order,
// and clip is MINPS/MAXPS with the ±4 bound as the destination, which keeps
// a NaN and a −0 exactly as the comparisons in clip do. There is no fused
// multiply-add. pow32, the RNG and the k == i skip stay in Go.

const sgdAsm = true

// l2sq16 returns vec.L2Sq(a[:16], b[:16]).
//
//go:noescape
func l2sq16(a, b *float32) float32

// attract16 is attract's loop over 16 coordinates.
//
//go:noescape
func attract16(x, y *float32, coef, alpha float32)

// repel16 is repel's loop over 16 coordinates.
//
//go:noescape
func repel16(x, z *float32, coef, alpha float32)
