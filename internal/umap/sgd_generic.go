//go:build !amd64 || purego

package umap

// Without the assembly (another GOARCH, or the purego tag) the SGD steps
// run their Go loops at every dimension. The stubs are never called; they
// exist so umap.go compiles on every GOARCH.

const sgdAsm = false

func l2sq16(a, b *float32) float32 {
	panic("umap: assembly kernel unavailable in this build")
}

func attract16(x, y *float32, coef, alpha float32) {
	panic("umap: assembly kernel unavailable in this build")
}

func repel16(x, z *float32, coef, alpha float32) {
	panic("umap: assembly kernel unavailable in this build")
}
