package pq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"semdisco/internal/vec"
)

func randomUnitVecs(n, dim int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		out[i] = vec.Normalize(v)
	}
	return out
}

// encodeAll encodes vs into one arena of q, slot i holding vs[i].
func encodeAll(q *Quantizer, vs [][]float32) *Codes {
	codes := q.NewCodes(len(vs))
	for i, v := range vs {
		q.Encode(v, codes, i)
	}
	return codes
}

// codeOf returns a contiguous copy of slot's code: the layout the Go
// bodies kept below index.
func codeOf(codes *Codes, slot int) []byte {
	code, c := make([]byte, codes.m), codes.code(slot)
	for s := range code {
		code[s] = c[s*BlockSlots]
	}
	return code
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Config{}); err == nil {
		t.Fatal("empty sample must error")
	}
	if _, err := Train([][]float32{{1, 2, 3}}, Config{M: 2}); err == nil {
		t.Fatal("M not dividing dim must error")
	}
	if _, err := Train([][]float32{{1, 2}}, Config{K: 300}); err == nil {
		t.Fatal("K>256 must error")
	}
}

func TestEncodeDecodeRoundTripError(t *testing.T) {
	vs := randomUnitVecs(500, 64, 1)
	q, err := Train(vs, Config{M: 8, K: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q.CodeLen() != 8 {
		t.Fatalf("CodeLen=%d", q.CodeLen())
	}
	var totalErr float64
	codes := encodeAll(q, vs)
	for i, v := range vs {
		rec := q.Decode(codes, i)
		totalErr += float64(vec.L2Sq(v, rec))
	}
	mse := totalErr / float64(len(vs))
	// Random unit vectors have squared norm 1; reconstruction must capture
	// a substantial fraction of the energy.
	if mse > 0.9 {
		t.Fatalf("reconstruction MSE too high: %v", mse)
	}
}

func TestQuantizationIsNearestCentroid(t *testing.T) {
	vs := randomUnitVecs(200, 32, 2)
	q, err := Train(vs, Config{M: 4, K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := vs[7]
	code := codeOf(encodeAll(q, vs[7:8]), 0)
	for s := 0; s < q.CodeLen(); s++ {
		lo := s * q.subDim
		subv := v[lo : lo+q.subDim]
		bestD := float32(math.MaxFloat32)
		best := 0
		for c, cent := range nestedCodebooks(q)[s] {
			if d := vec.L2Sq(subv, cent); d < bestD {
				best, bestD = c, d
			}
		}
		if int(code[s]) != best {
			t.Fatalf("subspace %d: code %d, nearest %d", s, code[s], best)
		}
	}
}

func TestADCMatchesDecodedDistance(t *testing.T) {
	vs := randomUnitVecs(300, 64, 3)
	q, err := Train(vs, Config{M: 8, K: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	query := randomUnitVecs(1, 64, 99)[0]
	table := q.DistTable(query, Table{})
	codes := encodeAll(q, vs[:50])
	for i := range vs[:50] {
		adc := table.Lookup(codes, i)
		exact := vec.L2Sq(query, q.Decode(codes, i))
		if math.Abs(float64(adc-exact)) > 1e-3 {
			t.Fatalf("ADC=%v decoded=%v", adc, exact)
		}
	}
}

func TestDotTableMatchesDecodedDot(t *testing.T) {
	vs := randomUnitVecs(300, 64, 4)
	q, err := Train(vs, Config{M: 8, K: 32, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	query := randomUnitVecs(1, 64, 98)[0]
	table := q.DotTable(query, Table{})
	codes := encodeAll(q, vs[:50])
	for i := range vs[:50] {
		adc := table.Lookup(codes, i)
		exact := vec.Dot(query, q.Decode(codes, i))
		if math.Abs(float64(adc-exact)) > 1e-3 {
			t.Fatalf("DotTable=%v decoded=%v", adc, exact)
		}
	}
}

func TestADCPreservesNeighborRanking(t *testing.T) {
	// Clustered data: PQ must keep near things near. Build three tight
	// clusters and check that ADC ranks same-cluster points first.
	rng := rand.New(rand.NewSource(5))
	var vs [][]float32
	for c := 0; c < 3; c++ {
		center := randomUnitVecs(1, 64, int64(c+10))[0]
		for i := 0; i < 60; i++ {
			v := vec.Clone(center)
			for d := range v {
				v[d] += float32(rng.NormFloat64()) * 0.05
			}
			vs = append(vs, vec.Normalize(v))
		}
	}
	q, err := Train(vs, Config{M: 8, K: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	codes := encodeAll(q, vs)
	query := vs[0] // belongs to cluster 0 (indices 0..59)
	table := q.DistTable(query, Table{})
	type pair struct {
		idx int
		d   float32
	}
	ps := make([]pair, len(vs))
	for i := range vs {
		ps[i] = pair{i, table.Lookup(codes, i)}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].d < ps[j].d })
	inCluster := 0
	for _, p := range ps[:30] {
		if p.idx < 60 {
			inCluster++
		}
	}
	if inCluster < 28 {
		t.Fatalf("only %d/30 of the nearest by ADC are in the true cluster", inCluster)
	}
}

func TestCompressionRatio(t *testing.T) {
	vs := randomUnitVecs(300, 128, 6)
	q, err := Train(vs, Config{M: 16, K: 256, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	raw := 128 * 4
	compressed := q.CodeLen()
	if ratio := float64(raw) / float64(compressed); ratio < 30 {
		t.Fatalf("compression ratio %v too small", ratio)
	}
}

func TestKReducedToSampleSize(t *testing.T) {
	vs := randomUnitVecs(10, 16, 7)
	q, err := Train(vs, Config{M: 2, Seed: 7}) // default K=256 > 10 samples
	if err != nil {
		t.Fatal(err)
	}
	if q.K() != 10 {
		t.Fatalf("K=%d want 10", q.K())
	}
}

func TestDefaultM768(t *testing.T) {
	vs := randomUnitVecs(50, 768, 9)
	q, err := Train(vs, Config{K: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if 768%q.CodeLen() != 0 {
		t.Fatalf("default M=%d does not divide 768", q.CodeLen())
	}
}

func BenchmarkEncode768(b *testing.B) {
	vs := randomUnitVecs(300, 768, 10)
	q, err := Train(vs, Config{K: 64, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	codes := q.NewCodes(len(vs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Encode(vs[i%len(vs)], codes, i%len(vs))
	}
}

func TestCodeDistMatchesDecodedPairs(t *testing.T) {
	vs := randomUnitVecs(300, 64, 20)
	q, err := Train(vs, Config{M: 8, K: 32, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	codes := encodeAll(q, vs[:40])
	for i := 0; i < 20; i++ {
		got := q.CodeDist(codes, i, i+20)
		want := vec.L2Sq(q.Decode(codes, i), q.Decode(codes, i+20))
		if math.Abs(float64(got-want)) > 1e-3 {
			t.Fatalf("CodeDist=%v decoded=%v", got, want)
		}
	}
}

func TestCodeDistSelfDistanceZero(t *testing.T) {
	vs := randomUnitVecs(100, 32, 21)
	q, err := Train(vs, Config{M: 4, K: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if d := q.CodeDist(encodeAll(q, vs[:1]), 0, 0); d != 0 {
		t.Fatalf("self distance %v", d)
	}
}

// TestTrainWorkerCountInvariance pins the training determinism contract:
// the M subquantizers use disjoint derived seeds and k-means itself is
// worker-count-invariant, so the codebooks must come out bit-identical no
// matter how training was sharded.
func TestTrainWorkerCountInvariance(t *testing.T) {
	sample := randomUnitVecs(400, 32, 13)
	base, err := Train(sample, Config{M: 4, K: 16, Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		q, err := Train(sample, Config{M: 4, K: 16, Seed: 13, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.codebook {
			if q.codebook[i] != base.codebook[i] {
				t.Fatalf("workers=%d: codebook[%d] not bit-identical", workers, i)
			}
		}
	}
}

// nestedCodebooks copies q's centroids into the [subspace][centroid][dim]
// layout the reference implementations below index.
func nestedCodebooks(q *Quantizer) [][][]float32 {
	out := make([][][]float32, q.m)
	for s := range out {
		out[s] = make([][]float32, q.k)
		for c := range out[s] {
			out[s][c] = vec.Clone(q.centroid(s, c))
		}
	}
	return out
}

// The ref* functions are the nested-slice implementations the flat
// codebook replaced, kept as the reference the flat ones must match bit for
// bit: refSDC is the precomputed K×K-per-subspace table construction
// distances used to be read from.

func refEncode(cb [][][]float32, subDim int, v []float32) []byte {
	code := make([]byte, len(cb))
	for s := range cb {
		subv := v[s*subDim : (s+1)*subDim]
		best, bestD := 0, float32(math.MaxFloat32)
		for c, cent := range cb[s] {
			if d := vec.L2Sq(subv, cent); d < bestD {
				best, bestD = c, d
			}
		}
		code[s] = byte(best)
	}
	return code
}

func refTable(cb [][][]float32, subDim int, query []float32, partial func(a, b []float32) float32) [][]float32 {
	t := make([][]float32, len(cb))
	for s := range cb {
		subq := query[s*subDim : (s+1)*subDim]
		row := make([]float32, len(cb[s]))
		for c, cent := range cb[s] {
			row[c] = partial(subq, cent)
		}
		t[s] = row
	}
	return t
}

func refLookup(t [][]float32, code []byte) float32 {
	var s float32
	for i, c := range code {
		s += t[i][c]
	}
	return s
}

type refSDC struct {
	k      int
	tables [][]float32 // tables[s][ci*k+cj]
}

func newRefSDC(cb [][][]float32) *refSDC {
	k := len(cb[0])
	s := &refSDC{k: k, tables: make([][]float32, len(cb))}
	for sub := range cb {
		t := make([]float32, k*k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				d := vec.L2Sq(cb[sub][i], cb[sub][j])
				t[i*k+j] = d
				t[j*k+i] = d
			}
		}
		s.tables[sub] = t
	}
	return s
}

func (s *refSDC) dist(a, b []byte) float32 {
	var d float32
	for i := range a {
		d += s.tables[i][int(a[i])*s.k+int(b[i])]
	}
	return d
}

// TestFlatCodebookBitIdentical pins every distance the flat codebook serves
// to the nested-slice reference, bit for bit, on both sides of vec's 8-wide
// unroll (subDim 1 and 4 run only its scalar tail, 8 only the unrolled
// body, 12 both), and at the index's shape — subDim 4 with K = 256, where
// CodeDist and Lookup take their byte-indexed kernels — and at a K that
// leaves the 4-dim row kernels a tail (30 = 7·4 + 2).
func TestFlatCodebookBitIdentical(t *testing.T) {
	const m = 6
	for _, tc := range []struct{ subDim, k int }{{1, 32}, {4, 32}, {8, 32}, {12, 32}, {4, 256}, {4, 30}} {
		subDim, k := tc.subDim, tc.k
		n := max(120, k+44)
		vs := randomUnitVecs(n, m*subDim, int64(40+subDim+k))
		q, err := Train(vs, Config{M: m, K: k, Seed: 40})
		if err != nil {
			t.Fatal(err)
		}
		cb := nestedCodebooks(q)
		sdc := newRefSDC(cb)
		arena := encodeAll(q, vs)
		codes := make([][]byte, n)
		for i, v := range vs {
			codes[i] = codeOf(arena, i)
			if want := refEncode(cb, subDim, v); !bytes.Equal(codes[i], want) {
				t.Fatalf("subDim %d K %d: Encode(%d) = %v, reference %v", subDim, k, i, codes[i], want)
			}
		}
		same := func(what string, i, j int, got, want float32) {
			t.Helper()
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("subDim %d K %d: %s(%d, %d) = %v, reference %v", subDim, k, what, i, j, got, want)
			}
		}
		var rows Table
		for i := 0; i < n; i += 7 {
			dist, dot := q.DistTable(vs[i], Table{}), q.DotTable(vs[i], Table{})
			refDist, refDot := refTable(cb, subDim, vs[i], vec.L2Sq), refTable(cb, subDim, vs[i], vec.Dot)
			rows = q.CodeDistRows(arena, i, rows)
			for j, code := range codes {
				same("DistTable.Lookup", i, j, dist.Lookup(arena, j), refLookup(refDist, code))
				same("DotTable.Lookup", i, j, dot.Lookup(arena, j), refLookup(refDot, code))
				want := sdc.dist(codes[i], code)
				same("CodeDist", i, j, q.CodeDist(arena, i, j), want)
				same("CodeDist", j, i, q.CodeDist(arena, j, i), want)
				same("CodeDistRows.Lookup", i, j, rows.Lookup(arena, j), want)
			}
		}
	}
}

// TestCodeLenChecked pins that an arena whose codes have too few or too
// many bytes is refused, on the byte-indexed kernels' shape (subDim 4,
// K = 256) and off it — a short code once gave a partial distance — and
// that a slot outside the arena is refused too.
func TestCodeLenChecked(t *testing.T) {
	expect := func(k int, name, prefix, suffix string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, prefix) || !strings.HasSuffix(msg, suffix) {
				t.Errorf("K %d: %s: panic %q, want %q…%q", k, name, msg, prefix, suffix)
			}
		}()
		f()
	}
	for _, k := range []int{256, 32} {
		vs := randomUnitVecs(300, 64, 22)
		q, err := Train(vs, Config{M: 16, K: k, Seed: 22, MaxIter: 2})
		if err != nil {
			t.Fatal(err)
		}
		codes := encodeAll(q, vs[:4])
		short := &Codes{m: 10, n: 4, bytes: make([]byte, BlockSlots*10)}
		long := &Codes{m: 17, n: 4, bytes: make([]byte, BlockSlots*17)}
		table, rows := q.DistTable(vs[3], Table{}), q.CodeDistRows(codes, 0, Table{})
		out := make([]float32, 4)
		for name, f := range map[string]func(){
			"CodeDist(short)":     func() { q.CodeDist(short, 0, 1) },
			"CodeDist(long)":      func() { q.CodeDist(long, 0, 1) },
			"Lookup(short)":       func() { table.Lookup(short, 0) },
			"Lookup(long)":        func() { table.Lookup(long, 0) },
			"rows.Lookup(short)":  func() { rows.Lookup(short, 1) },
			"Lookup(empty)":       func() { table.Lookup(&Codes{}, 0) },
			"LookupBatch(short)":  func() { table.LookupBatch(short, 0, out) },
			"LookupBatch(long)":   func() { table.LookupBatch(long, 0, out) },
			"CodeDistRows(short)": func() { q.CodeDistRows(short, 0, Table{}) },
			"Encode(short)":       func() { q.Encode(vs[0], short, 0) },
			"Decode(short)":       func() { q.Decode(short, 0) },
		} {
			expect(k, name, "pq: code len ", ", want 16", f)
		}
		for name, f := range map[string]func(){
			"Lookup(-1)":               func() { table.Lookup(codes, -1) },
			"Lookup(4)":                func() { table.Lookup(codes, 4) },
			"CodeDist(0, 4)":           func() { q.CodeDist(codes, 0, 4) },
			"CodeDist(8, 0)":           func() { q.CodeDist(codes, 8, 0) },
			"CodeDistRows(4)":          func() { q.CodeDistRows(codes, 4, Table{}) },
			"Encode(4)":                func() { q.Encode(vs[0], codes, 4) },
			"Decode(5)":                func() { q.Decode(codes, 5) },
			"LookupBatch(-1)":          func() { table.LookupBatch(codes, -1, out[:1]) },
			"LookupBatch(1)":           func() { table.LookupBatch(codes, 1, out[:1]) },
			"LookupBatch past the end": func() { table.LookupBatch(codes, 0, make([]float32, 5)) },
		} {
			expect(k, name, "pq: slot", "", f)
		}
	}
}

// The kernel references below are the Go bodies of CodeDist at subDim 4,
// the 4-dim table rows, CodeDistRows and Table.Lookup over a contiguous
// code, kept verbatim: whatever runs in their place, reading a slot's code
// at the arena's stride, must return their bits.

func refCodeDist4(cents []float32, k int, a, b []byte) float32 {
	stride := k * 4
	var d float32
	for s := range a {
		x := (*[4]float32)(cents[int(a[s])*4:])
		y := (*[4]float32)(cents[int(b[s])*4:])
		d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
		d += d0*d0 + d1*d1 + d2*d2 + d3*d3
		cents = cents[stride:]
	}
	return d
}

func refL2sqRow(x, cents, row []float32) {
	sd := len(x)
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

func refDotRow(x, cents, row []float32) {
	sd := len(x)
	for c := range row {
		y := cents[c*sd:][:sd]
		var sum float32
		for i, xi := range x {
			sum += xi * y[i]
		}
		row[c] = sum
	}
}

func refCodeDistRows(q *Quantizer, code []byte) []float32 {
	rows := make([]float32, q.m*q.k)
	for s := 0; s < q.m; s++ {
		refL2sqRow(q.centroid(s, int(code[s])), q.subspace(s), rows[s*q.k:(s+1)*q.k])
	}
	return rows
}

func refFlatLookup(v []float32, k int, code []byte) float32 {
	var sum float32
	for _, c := range code {
		sum += v[c]
		v = v[k:]
	}
	return sum
}

// TestPQKernelsBitIdentical holds CodeDist, the 4-dim table rows,
// CodeDistRows and Lookup to their Go bodies by bit pattern — the per-slot
// readers on two slots of an arena, in different blocks and at neither
// block's start, so each reads its code at stride 8 — at K = 256 (every kernel) and K = 30
// (the row kernels with a 2-centroid tail), on mixed-magnitude data where
// the order of additions matters, and with one special value at a time —
// NaN, ±Inf, subnormal, −0, the extremes — at every coordinate of every
// centroid and of the query. One special against finite data fixes the
// result's bits by IEEE 754 alone (two NaNs meeting would not: which
// payload survives depends on operand order).
func TestPQKernelsBitIdentical(t *testing.T) {
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		subnormal, -subnormal, math.SmallestNonzeroFloat32, math.MaxFloat32,
		-math.MaxFloat32, float32(math.Copysign(0, -1)),
	}
	for _, k := range []int{256, 30} {
		const m = 2
		rng := rand.New(rand.NewSource(int64(k)))
		fill := func(x []float32) {
			for i := range x {
				x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
			}
		}
		q := &Quantizer{dim: m * 4, m: m, k: k, subDim: 4, codebook: make([]float32, m*k*4)}
		fill(q.codebook)
		query := make([]float32, m*4)
		fill(query)
		// Slots 3 and 9 of an arena of 11 slots, two blocks.
		const sa, sb = 3, 9
		codes := &Codes{m: m, n: 11, bytes: make([]byte, 2*BlockSlots*m)}
		got, want := make([]float32, k), make([]float32, k)
		same := func(what string, g, w float32) {
			t.Helper()
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("K %d: %s = %#08x, Go body %#08x", k, what, math.Float32bits(g), math.Float32bits(w))
			}
		}
		sameRow := func(what string, kernel, ref func(x, cents, row []float32), x []float32, s int) {
			t.Helper()
			kernel(x, q.subspace(s), got)
			ref(x, q.subspace(s), want)
			for c := range got {
				if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
					t.Fatalf("K %d: %s, subspace %d, centroid %d = %#08x, Go body %#08x",
						k, what, s, c, math.Float32bits(got[c]), math.Float32bits(want[c]))
				}
			}
		}
		// checkAll compares every kernel on inputs that touch centroid c of
		// subspace s: c against itself and against its neighbour, as one
		// side of a code-to-code distance, as a row's left-hand side, and
		// looked up in tables built from the query.
		checkAll := func(what string, s, c int) {
			t.Helper()
			other := (c + 1) % k
			dist, dot := q.DistTable(query, Table{}), q.DotTable(query, Table{})
			for _, pair := range [][2]int{{c, c}, {c, other}, {other, c}} {
				ca, cb := codes.code(sa), codes.code(sb)
				for i := 0; i < m; i++ {
					ca[i*BlockSlots], cb[i*BlockSlots] = byte(rng.Intn(k)), byte(rng.Intn(k))
				}
				ca[s*BlockSlots], cb[s*BlockSlots] = byte(pair[0]), byte(pair[1])
				a, b := codeOf(codes, sa), codeOf(codes, sb)
				same(what+": CodeDist", q.CodeDist(codes, sa, sb), refCodeDist4(q.codebook, k, a, b))
				same(what+": DistTable.Lookup", dist.Lookup(codes, sa), refFlatLookup(dist.v, k, a))
				same(what+": DotTable.Lookup", dot.Lookup(codes, sb), refFlatLookup(dot.v, k, b))
			}
			rows, ref := q.CodeDistRows(codes, sa, Table{}), refCodeDistRows(q, codeOf(codes, sa))
			for e := range ref {
				if math.Float32bits(rows.v[e]) != math.Float32bits(ref[e]) {
					same(fmt.Sprintf("%s: CodeDistRows entry %d", what, e), rows.v[e], ref[e])
				}
			}
			cent := q.centroid(s, c)
			sameRow(what+": L2SqRow(centroid)", vec.L2SqRow, refL2sqRow, cent, s)
			sameRow(what+": DotRow(centroid)", vec.DotRow, refDotRow, cent, s)
			x := query[s*4 : s*4+4]
			sameRow(what+": L2SqRow(query)", vec.L2SqRow, refL2sqRow, x, s)
			sameRow(what+": DotRow(query)", vec.DotRow, refDotRow, x, s)
		}
		checkAll("random", 0, 0)
		checkAll("random", 1, k-1)
		// A ±0 query makes every product of a dot row ±0: only the Go
		// body's +0 start then decides the sign of the entry.
		keep := append([]float32(nil), query...)
		for _, z := range []float32{0, float32(math.Copysign(0, -1))} {
			for i := range query {
				query[i] = z
			}
			checkAll(fmt.Sprintf("query of %v", z), 0, 0)
		}
		copy(query, keep)
		for _, sp := range specials {
			for p := range q.codebook {
				keep := q.codebook[p]
				q.codebook[p] = sp
				s, c := p/(k*4), p/4%k
				checkAll(fmt.Sprintf("centroid %d of subspace %d, dim %d = %v", c, s, p%4, sp), s, c)
				q.codebook[p] = keep
			}
			for p := range query {
				keep := query[p]
				query[p] = sp
				s := p / 4
				checkAll(fmt.Sprintf("query dim %d = %v", p, sp), s, rng.Intn(k))
				query[p] = keep
			}
		}
	}
}

// TestTableReuseBitIdentical pins the dst contract of the query tables: a
// table last filled for a different query — or by the other builder, or
// sized for another quantizer — gives every Lookup the bits of a fresh
// table, and a correctly sized one is filled in place.
func TestTableReuseBitIdentical(t *testing.T) {
	vs := randomUnitVecs(200, 64, 21)
	q, err := Train(vs, Config{M: 16, K: 32, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Train(vs, Config{M: 8, K: 16, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	codes := encodeAll(q, vs)
	dist, dot := other.DistTable(vs[199], Table{}), other.DotTable(vs[198], Table{})
	for i := 0; i < 40; i++ {
		prevDist, prevDot := dist, dot
		dist, dot = q.DistTable(vs[i], dot), q.DotTable(vs[i], prevDist)
		if i > 0 && (&dist.v[0] != &prevDot.v[0] || &dot.v[0] != &prevDist.v[0]) {
			t.Fatalf("query %d: a sized table was reallocated", i)
		}
		freshDist, freshDot := q.DistTable(vs[i], Table{}), q.DotTable(vs[i], Table{})
		for j := range vs {
			if got, want := dist.Lookup(codes, j), freshDist.Lookup(codes, j); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("query %d code %d: reused DistTable %v, fresh %v", i, j, got, want)
			}
			if got, want := dot.Lookup(codes, j), freshDot.Lookup(codes, j); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("query %d code %d: reused DotTable %v, fresh %v", i, j, got, want)
			}
		}
	}
}

// benchQuantizer256 trains a quantizer in the ANNS index's shape (dim 256,
// 4-dim subspaces, 256 centroids) and encodes its sample: into one arena,
// and each code contiguous for the Go bodies kept above.
func benchQuantizer256(b *testing.B) (*Quantizer, [][]float32, *Codes, [][]byte) {
	vs := randomUnitVecs(600, 256, 12)
	q, err := Train(vs, Config{M: 64, K: 256, Seed: 12, MaxIter: 2})
	if err != nil {
		b.Fatal(err)
	}
	codes := encodeAll(q, vs)
	flat := make([][]byte, len(vs))
	for i := range flat {
		flat[i] = codeOf(codes, i)
	}
	return q, vs, codes, flat
}

// BenchmarkCodeDist measures the code-to-code distance in the ANNS index's
// shape — the pairwise distance of HNSW neighbour selection — beside the Go
// body the kernel reproduces.
func BenchmarkCodeDist(b *testing.B) {
	q, _, codes, flat := benchQuantizer256(b)
	n := codes.Len()
	for _, k := range []struct {
		name string
		fn   func(a, b int) float32
	}{
		{"kernel", func(a, b int) float32 { return q.CodeDist(codes, a, b) }},
		{"go", func(a, b int) float32 { return refCodeDist4(q.codebook, q.k, flat[a], flat[b]) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += k.fn(i%n, (i*7+1)%n)
			}
			benchSink = sink
		})
	}
}

// BenchmarkTables256 times the table builders in the ANNS index's shape: a
// query's DistTable and DotTable, and the per-target row table of HNSW
// construction, then DistTable's rows through the Go body.
func BenchmarkTables256(b *testing.B) {
	q, vs, codes, _ := benchQuantizer256(b)
	t := q.DistTable(vs[0], Table{})
	for _, bc := range []struct {
		name string
		fill func(i int)
	}{
		{"DistTable/kernel", func(i int) { t = q.DistTable(vs[i%len(vs)], t) }},
		{"DotTable/kernel", func(i int) { t = q.DotTable(vs[i%len(vs)], t) }},
		{"CodeDistRows/kernel", func(i int) { t = q.CodeDistRows(codes, i%codes.Len(), t) }},
		{"DistTable/go", func(i int) {
			query := vs[i%len(vs)]
			for s := 0; s < q.m; s++ {
				refL2sqRow(query[s*4:s*4+4], q.subspace(s), t.v[s*q.k:(s+1)*q.k])
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fill(i)
			}
		})
	}
}

// BenchmarkADCLookup times one table lookup per slot: at dim 768 with 64
// centroids (the general body), and in the ANNS index's shape (K = 256, the
// byte-indexed kernel) beside the Go body.
func BenchmarkADCLookup(b *testing.B) {
	vs := randomUnitVecs(300, 768, 11)
	q768, err := Train(vs, Config{K: 64, Seed: 11, MaxIter: 2})
	if err != nil {
		b.Fatal(err)
	}
	codes768 := encodeAll(q768, vs)
	t768 := q768.DistTable(vs[0], Table{})
	q, vs256, codes, flat := benchQuantizer256(b)
	t := q.DistTable(vs256[0], Table{})
	for _, bc := range []struct {
		name string
		n    int
		fn   func(slot int) float32
	}{
		{"dim768-K64", codes768.Len(), func(slot int) float32 { return t768.Lookup(codes768, slot) }},
		{"dim256-K256/kernel", codes.Len(), func(slot int) float32 { return t.Lookup(codes, slot) }},
		{"dim256-K256/go", len(flat), func(slot int) float32 { return refFlatLookup(t.v, t.k, flat[slot]) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float32
			for i := 0; i < b.N; i++ {
				sink += bc.fn(i % bc.n)
			}
			benchSink = sink
		})
	}
}

var benchSink float32

// TestLookupBatchBitIdentical holds LookupBatch to Lookup and to Lookup's
// Go body over the contiguous code, slot by slot and bit for bit, at
// K = 256 (the arena kernel) and K = 30 (the Go block body), for every slot
// count from 1 to 17 — so every remainder of eight, and the padded tail
// block, is covered — on mixed-magnitude tables where the order of
// additions matters, and with one special value at a time in the table:
// NaN, ±Inf, subnormal, −0, the extremes. The output is pre-filled with a
// sentinel, so a slot the batch skips shows too. A finite table is also
// scored over every sub-range of the arena that starts a block, so a batch
// that ends inside a block, or starts past the first, is held to the same
// sums.
func TestLookupBatchBitIdentical(t *testing.T) {
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		subnormal, -subnormal, math.MaxFloat32, -math.MaxFloat32,
		float32(math.Copysign(0, -1)),
	}
	sentinel := math.Float32frombits(0x7fc0dead)
	for _, k := range []int{256, 30} {
		const m = 5
		rng := rand.New(rand.NewSource(int64(k) + 100))
		table := Table{k: k, v: make([]float32, m*k)}
		for i := range table.v {
			table.v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		// arena builds n codes, each of which reads entry p of the table
		// (row p/k, centroid p%k) with probability one half.
		arena := func(n, p int) *Codes {
			codes := &Codes{m: m, n: n, bytes: make([]byte, (n+BlockSlots-1)/BlockSlots*BlockSlots*m)}
			for i := 0; i < n; i++ {
				code := codes.code(i)
				for s := 0; s < m; s++ {
					code[s*BlockSlots] = byte(rng.Intn(k))
				}
				if rng.Intn(2) == 0 {
					code[p/k*BlockSlots] = byte(p % k)
				}
			}
			return codes
		}
		// check scores slots lo..hi−1 of codes in one batch and compares
		// each with Lookup and with Lookup's Go body.
		check := func(what string, codes *Codes, lo, hi int) {
			t.Helper()
			out := make([]float32, hi-lo)
			for i := range out {
				out[i] = sentinel
			}
			table.LookupBatch(codes, lo, out)
			for i, got := range out {
				slot := lo + i
				for _, w := range []struct {
					name string
					want float32
				}{
					{"Lookup", table.Lookup(codes, slot)},
					{"Go body", refFlatLookup(table.v, k, codeOf(codes, slot))},
				} {
					if math.Float32bits(got) != math.Float32bits(w.want) {
						t.Fatalf("K %d, %s, slots %d..%d of %d: slot %d = %#08x, %s %#08x",
							k, what, lo, hi-1, codes.n, slot, math.Float32bits(got), w.name, math.Float32bits(w.want))
					}
				}
			}
		}
		for n := 1; n <= 17; n++ {
			for p := 0; p < m*k; p += 7 {
				check("finite table", arena(n, p), 0, n)
			}
			codes := arena(n, 0)
			for lo := 0; lo < n; lo += BlockSlots {
				for hi := lo + 1; hi <= n; hi++ {
					check("finite table", codes, lo, hi)
				}
			}
		}
		for _, sp := range specials {
			for p := range table.v {
				keep := table.v[p]
				table.v[p] = sp
				for n := 1; n <= 17; n++ {
					check(fmt.Sprintf("entry %d = %v", p, sp), arena(n, p), 0, n)
				}
				table.v[p] = keep
			}
		}
	}
}

// BenchmarkADCLookupBatch times the scan's ADC in the ANNS index's shape:
// 64 slots of the arena through LookupBatch — the eight-chain kernel
// beside its Go body — and through 64 Lookup calls, per code.
func BenchmarkADCLookupBatch(b *testing.B) {
	q, vs, codes, _ := benchQuantizer256(b)
	t := q.DotTable(vs[0], Table{})
	out := make([]float32, 64)
	blocks := (codes.Len() - 64) / BlockSlots
	for _, bc := range []struct {
		name string
		fn   func(lo int)
	}{
		{"batch/kernel", func(lo int) { t.LookupBatch(codes, lo, out) }},
		{"batch/go", func(lo int) {
			blockLen := BlockSlots * codes.m
			lookupBlocksGo(t.v, t.k, codes.bytes[lo/BlockSlots*blockLen:], codes.m, out)
		}},
		{"lookup", func(lo int) {
			for i := range out {
				out[i] = t.Lookup(codes, lo+i)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.fn(i % blocks * BlockSlots)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/code")
		})
	}
}
