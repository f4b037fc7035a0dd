//go:build !amd64 || purego

package vec

// Without the assembly DotHalf runs its pure-Go body.

const halfAsm = false

func dotHalf4x1(q0, q1, q2, q3 *float32, rows *uint16, nrows, dim, blocks int, out *float32, ostride int) {
	panic("vec: assembly kernel unavailable in this build")
}

func dotHalf1x2(q *float32, rows *uint16, nrows, dim, blocks int, out *float32) {
	panic("vec: assembly kernel unavailable in this build")
}
