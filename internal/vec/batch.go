package vec

import (
	"math"

	"semdisco/internal/par"
)

// Batched (GEMM-style) kernels: a block of queries against a block of value
// vectors. The point is memory amortization — every value vector loaded from
// RAM is reused across a register block of 4 queries, turning Q scan passes
// over the corpus into Q/4 — plus instruction-level parallelism: the single-
// query Dot kernel keeps 4 independent accumulator chains in flight, which
// does not saturate the FP units; the 4-query block runs 16.
//
// Bit-identity contract: out[i*len(vs)+j] is bit-identical to
// Dot(qs[i], vs[j]) (resp. L2Sq). The 4-query kernels give each query its
// own 4 accumulators, combined in exactly the order the single-query kernels
// use, and every per-lane expression has the same shape — so the sequence of
// float32 roundings is the same. ExS relies on this to make batched search
// results bit-identical to the per-query scan.

// DotBatch computes the inner product of every query in qs against every
// value in vs: out[i*len(vs)+j] = Dot(qs[i], vs[j]). out must have at least
// len(qs)*len(vs) elements. Queries are processed in register blocks of 4 so
// each value vector is loaded once per block instead of once per query; each
// result is bit-identical to the corresponding Dot call.
func DotBatch(qs, vs [][]float32, out []float32) {
	nv := len(vs)
	if len(out) < len(qs)*nv {
		assertSameLen(len(out), len(qs)*nv)
	}
	i := 0
	for ; i+4 <= len(qs); i += 4 {
		r0 := out[i*nv : i*nv+nv]
		r1 := out[(i+1)*nv : (i+1)*nv+nv]
		r2 := out[(i+2)*nv : (i+2)*nv+nv]
		r3 := out[(i+3)*nv : (i+3)*nv+nv]
		q0, q1, q2, q3 := qs[i], qs[i+1], qs[i+2], qs[i+3]
		for j, v := range vs {
			r0[j], r1[j], r2[j], r3[j] = dot4(q0, q1, q2, q3, v)
		}
	}
	for ; i < len(qs); i++ {
		row := out[i*nv : i*nv+nv]
		for j, v := range vs {
			row[j] = Dot(qs[i], v)
		}
	}
}

// L2SqBatch computes the squared Euclidean distance of every query in qs
// against every value in vs: out[i*len(vs)+j] = L2Sq(qs[i], vs[j]), with the
// same blocking and bit-identity contract as DotBatch.
func L2SqBatch(qs, vs [][]float32, out []float32) {
	nv := len(vs)
	if len(out) < len(qs)*nv {
		assertSameLen(len(out), len(qs)*nv)
	}
	i := 0
	for ; i+4 <= len(qs); i += 4 {
		r0 := out[i*nv : i*nv+nv]
		r1 := out[(i+1)*nv : (i+1)*nv+nv]
		r2 := out[(i+2)*nv : (i+2)*nv+nv]
		r3 := out[(i+3)*nv : (i+3)*nv+nv]
		q0, q1, q2, q3 := qs[i], qs[i+1], qs[i+2], qs[i+3]
		for j, v := range vs {
			r0[j], r1[j], r2[j], r3[j] = l2sq4(q0, q1, q2, q3, v)
		}
	}
	for ; i < len(qs); i++ {
		row := out[i*nv : i*nv+nv]
		for j, v := range vs {
			row[j] = L2Sq(qs[i], v)
		}
	}
}

// NearestAll returns every point's k nearest other points: nbrs[i] is
// NearestK(row, k, i, …) over row[j] = float32(√L2Sq(points[i], points[j])),
// the rooted distances of the exact kNN and of a core-distance pass. Each
// unordered pair is scored once: a tile of 4 rows [t, t+4) goes through
// L2SqBatch against the columns [t, n) only, and the rooted distance of
// (r, j) is offered to both r's and j's list. L2Sq(a, b) and L2Sq(b, a)
// are the same float, since only the sign of each difference changes.
//
// A list receives its candidates in ascending index order — first the
// rows scored before its own, then its own row's columns — so the strict <
// insertion of NearestK is the whole (dist, index) tie-break, and the list
// equals NearestK's on the full row. With workers > 1 each worker scores a
// contiguous run of tiles into lists of its own, and the lists are merged
// by (dist, index); every candidate reaches exactly one worker, so the
// result does not depend on the worker count. Like NearestK it expects
// NaN-free distances.
func NearestAll(points [][]float32, k, workers int) [][]Neighbor {
	n := len(points)
	if k > n-1 {
		k = n - 1
	}
	if k <= 0 {
		return make([][]Neighbor, n)
	}
	workers = max(1, min(workers, n/nearestTile))
	// Row r pairs with the n−1−r rows after it, so equal pair counts put
	// boundary w at n·(1 − √(1 − w/workers)), rounded to a tile.
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		b := int(float64(n) * (1 - math.Sqrt(1-float64(w)/float64(workers))))
		bounds[w] = b - b%nearestTile
	}
	bounds[workers] = n
	parts := make([][][]Neighbor, workers)
	par.Each(workers, workers, func(w int) {
		parts[w] = newNearestLists(n, k)
		nearestTiles(points, bounds[w], bounds[w+1], k, parts[w])
	})
	lists := parts[0]
	merged := make([]Neighbor, 0, k)
	for i := range lists {
		for _, part := range parts[1:] {
			merged = mergeNearest(merged[:0], lists[i], part[i], k)
			lists[i] = append(lists[i][:0], merged...)
		}
	}
	return lists
}

// nearestTile is NearestAll's row tile: L2SqBatch's 4-query block.
const nearestTile = 4

// newNearestLists returns n empty lists of capacity k over one slab.
func newNearestLists(n, k int) [][]Neighbor {
	slab := make([]Neighbor, n*k)
	lists := make([][]Neighbor, n)
	for i := range lists {
		lists[i] = slab[i*k : i*k : (i+1)*k]
	}
	return lists
}

// nearestTiles scores the rows [lo, hi) against every later column, tile by
// tile, and offers each pair to both of its lists. The column loop is the
// outer one, so each list — a tile row's or a column's — sees its
// candidates in ascending index order.
func nearestTiles(points [][]float32, lo, hi, k int, lists [][]Neighbor) {
	n := len(points)
	block := make([]float32, nearestTile*(n-lo))
	for t := lo; t < hi; t += nearestTile {
		e := min(t+nearestTile, hi)
		m := n - t
		L2SqBatch(points[t:e], points[t:], block[:(e-t)*m])
		for j := t + 1; j < n; j++ {
			lj := lists[j]
			for r := t; r < e && r < j; r++ {
				d := float32(math.Sqrt(float64(block[(r-t)*m+j-t])))
				if lr := lists[r]; len(lr) < k || d < lr[k-1].Dist {
					lists[r] = placeNearest(lr, k, int32(j), d)
				}
				if len(lj) < k || d < lj[k-1].Dist {
					lj = placeNearest(lj, k, int32(r), d)
				}
			}
			lists[j] = lj
		}
	}
}

// mergeNearest appends to dst the k first entries, in (dist, index) order,
// of two lists sorted that way whose indices are distinct.
func mergeNearest(dst, a, b []Neighbor, k int) []Neighbor {
	for len(dst) < k && len(a)+len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && (a[0].Dist < b[0].Dist || a[0].Dist == b[0].Dist && a[0].ID < b[0].ID) {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return dst
}

// dot4 computes the inner product of four queries against one shared value
// vector. Each of v's elements is loaded once for all four queries; each
// query keeps its own four accumulators in the exact shape of Dot, so every
// returned product is bit-identical to the corresponding Dot call. On amd64
// the 8-wide body runs in SSE2 assembly with the four accumulator chains
// mapped onto vector lanes — same operations, same rounding, ~3x throughput.
func dot4(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	n := len(v)
	assertSameLen(len(q0), n)
	assertSameLen(len(q1), n)
	assertSameLen(len(q2), n)
	assertSameLen(len(q3), n)
	if kernelAsm && n >= 8 {
		return dot4Asm(q0, q1, q2, q3, v)
	}
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var d0, d1, d2, d3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		v0, v1, v2, v3 := v[i], v[i+1], v[i+2], v[i+3]
		v4, v5, v6, v7 := v[i+4], v[i+5], v[i+6], v[i+7]
		a0 += q0[i]*v0 + q0[i+4]*v4
		a1 += q0[i+1]*v1 + q0[i+5]*v5
		a2 += q0[i+2]*v2 + q0[i+6]*v6
		a3 += q0[i+3]*v3 + q0[i+7]*v7
		b0 += q1[i]*v0 + q1[i+4]*v4
		b1 += q1[i+1]*v1 + q1[i+5]*v5
		b2 += q1[i+2]*v2 + q1[i+6]*v6
		b3 += q1[i+3]*v3 + q1[i+7]*v7
		c0 += q2[i]*v0 + q2[i+4]*v4
		c1 += q2[i+1]*v1 + q2[i+5]*v5
		c2 += q2[i+2]*v2 + q2[i+6]*v6
		c3 += q2[i+3]*v3 + q2[i+7]*v7
		d0 += q3[i]*v0 + q3[i+4]*v4
		d1 += q3[i+1]*v1 + q3[i+5]*v5
		d2 += q3[i+2]*v2 + q3[i+6]*v6
		d3 += q3[i+3]*v3 + q3[i+7]*v7
	}
	o0 = (a0 + a1) + (a2 + a3)
	o1 = (b0 + b1) + (b2 + b3)
	o2 = (c0 + c1) + (c2 + c3)
	o3 = (d0 + d1) + (d2 + d3)
	for ; i < n; i++ {
		x := v[i]
		o0 += q0[i] * x
		o1 += q1[i] * x
		o2 += q2[i] * x
		o3 += q3[i] * x
	}
	return o0, o1, o2, o3
}

// l2sq4 is dot4's squared-distance twin, matching L2Sq's expression shape.
func l2sq4(q0, q1, q2, q3, v []float32) (o0, o1, o2, o3 float32) {
	n := len(v)
	assertSameLen(len(q0), n)
	assertSameLen(len(q1), n)
	assertSameLen(len(q2), n)
	assertSameLen(len(q3), n)
	if kernelAsm && n >= 8 {
		return l2sq4Asm(q0, q1, q2, q3, v)
	}
	q0, q1, q2, q3 = q0[:n], q1[:n], q2[:n], q3[:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	var c0, c1, c2, c3 float32
	var d0, d1, d2, d3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		v0, v1, v2, v3 := v[i], v[i+1], v[i+2], v[i+3]
		v4, v5, v6, v7 := v[i+4], v[i+5], v[i+6], v[i+7]
		{
			e0 := q0[i] - v0
			e4 := q0[i+4] - v4
			a0 += e0*e0 + e4*e4
			e1 := q0[i+1] - v1
			e5 := q0[i+5] - v5
			a1 += e1*e1 + e5*e5
			e2 := q0[i+2] - v2
			e6 := q0[i+6] - v6
			a2 += e2*e2 + e6*e6
			e3 := q0[i+3] - v3
			e7 := q0[i+7] - v7
			a3 += e3*e3 + e7*e7
		}
		{
			e0 := q1[i] - v0
			e4 := q1[i+4] - v4
			b0 += e0*e0 + e4*e4
			e1 := q1[i+1] - v1
			e5 := q1[i+5] - v5
			b1 += e1*e1 + e5*e5
			e2 := q1[i+2] - v2
			e6 := q1[i+6] - v6
			b2 += e2*e2 + e6*e6
			e3 := q1[i+3] - v3
			e7 := q1[i+7] - v7
			b3 += e3*e3 + e7*e7
		}
		{
			e0 := q2[i] - v0
			e4 := q2[i+4] - v4
			c0 += e0*e0 + e4*e4
			e1 := q2[i+1] - v1
			e5 := q2[i+5] - v5
			c1 += e1*e1 + e5*e5
			e2 := q2[i+2] - v2
			e6 := q2[i+6] - v6
			c2 += e2*e2 + e6*e6
			e3 := q2[i+3] - v3
			e7 := q2[i+7] - v7
			c3 += e3*e3 + e7*e7
		}
		{
			e0 := q3[i] - v0
			e4 := q3[i+4] - v4
			d0 += e0*e0 + e4*e4
			e1 := q3[i+1] - v1
			e5 := q3[i+5] - v5
			d1 += e1*e1 + e5*e5
			e2 := q3[i+2] - v2
			e6 := q3[i+6] - v6
			d2 += e2*e2 + e6*e6
			e3 := q3[i+3] - v3
			e7 := q3[i+7] - v7
			d3 += e3*e3 + e7*e7
		}
	}
	o0 = (a0 + a1) + (a2 + a3)
	o1 = (b0 + b1) + (b2 + b3)
	o2 = (c0 + c1) + (c2 + c3)
	o3 = (d0 + d1) + (d2 + d3)
	for ; i < n; i++ {
		x := v[i]
		e0 := q0[i] - x
		o0 += e0 * e0
		e1 := q1[i] - x
		o1 += e1 * e1
		e2 := q2[i] - x
		o2 += e2 * e2
		e3 := q3[i] - x
		o3 += e3 * e3
	}
	return o0, o1, o2, o3
}
