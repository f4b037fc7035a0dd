//go:build amd64 && !purego

package vec

import (
	"math"
	"testing"
)

// TestHalfToFloat32MatchesF16C holds the Go conversion to VCVTPH2PS, the
// one the assembly body applies, for all 65,536 bit patterns.
func TestHalfToFloat32MatchesF16C(t *testing.T) {
	if !halfAsm {
		t.Skip("CPU without F16C")
	}
	var h [8]uint16
	var got [8]float32
	for i := 0; i < 1<<16; i += 8 {
		for j := range h {
			h[j] = uint16(i + j)
		}
		cvtHalf8(&h[0], &got)
		for j, x := range h {
			if a, b := math.Float32bits(got[j]), math.Float32bits(HalfToFloat32(x)); a != b {
				t.Fatalf("%#04x: VCVTPH2PS %#08x, HalfToFloat32 %#08x", x, a, b)
			}
		}
	}
}
