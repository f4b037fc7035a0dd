package vec

// L2SqRow sets row[c] to L2Sq(x, cents[c·d:(c+1)·d]) for every c, d =
// len(x): the squared distances from x to len(row) d-dim points laid back
// to back in cents, bit-equal to L2Sq per entry. It is the nearest-centroid
// row of k-means assignment and PQ encoding, and one subspace of a PQ
// table. Points shorter than L2Sq's 8-wide unroll — PQ's 4-dim subspaces —
// get only L2Sq's scalar tail, which the loop below repeats float for float
// without a call per point. On amd64 a 4-dim row runs four points at a time
// in SSE2 (row_amd64.s), and the len(row)%4 left take the loop. It panics
// unless len(cents) == len(row)·len(x).
func L2SqRow(x, cents, row []float32) {
	sd := len(x)
	assertSameLen(len(cents), len(row)*sd)
	if sd >= 8 {
		for c := range row {
			row[c] = L2Sq(x, cents[c*sd:(c+1)*sd])
		}
		return
	}
	if n := len(row) &^ 3; kernelAsm && sd == 4 && n > 0 {
		l2sqRowAsm(x, cents[:n*4], row[:n])
		cents, row = cents[n*4:], row[n:]
	}
	for c := range row {
		y := cents[c*sd:][:sd]
		var sum float32
		for i, xi := range x {
			d := xi - y[i]
			sum += d * d
		}
		row[c] = sum
	}
}

// DotRow is L2SqRow for inner products, bit-equal to Dot per entry.
func DotRow(x, cents, row []float32) {
	sd := len(x)
	assertSameLen(len(cents), len(row)*sd)
	if sd >= 8 {
		for c := range row {
			row[c] = Dot(x, cents[c*sd:(c+1)*sd])
		}
		return
	}
	if n := len(row) &^ 3; kernelAsm && sd == 4 && n > 0 {
		dotRowAsm(x, cents[:n*4], row[:n])
		cents, row = cents[n*4:], row[n:]
	}
	for c := range row {
		y := cents[c*sd:][:sd]
		var sum float32
		for i, xi := range x {
			sum += xi * y[i]
		}
		row[c] = sum
	}
}
