//go:build amd64 && !purego

package vec

// DotHalf's assembly body needs AVX (the YMM registers and their OS
// support), FMA and F16C, which the amd64 baseline does not promise, so it
// is chosen once, here, from CPUID and XGETBV (half_amd64.s). A CPU
// without them runs the pure-Go body.

var halfAsm = detectHalfAsm()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

// detectHalfAsm reports AVX2, FMA and F16C with the YMM state enabled by
// the OS.
func detectHalfAsm() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx, f16c = 1 << 12, 1 << 27, 1 << 28, 1 << 29
	if ecx1&(fma|osxsave|avx|f16c) != fma|osxsave|avx|f16c {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// dotHalf4x1 sets out[i·ostride + r] to the 16-float blocks of q_i · row r
// for the four queries q0..q3 and nrows rows dim apart.
//
//go:noescape
func dotHalf4x1(q0, q1, q2, q3 *float32, rows *uint16, nrows, dim, blocks int, out *float32, ostride int)

// dotHalf1x2 sets out[r] to the 16-float blocks of q · row r, two rows at a
// time; an odd last row is paired with itself.
//
//go:noescape
func dotHalf1x2(q *float32, rows *uint16, nrows, dim, blocks int, out *float32)

// cvtHalf8 converts eight binary16 values with VCVTPH2PS, the conversion
// the assembly body applies to every row element.
//
//go:noescape
func cvtHalf8(h *uint16, out *[8]float32)
