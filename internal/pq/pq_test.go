package pq

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"sort"
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
	for _, v := range vs {
		rec := q.Decode(q.Encode(v))
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
	code := q.Encode(v)
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
	for _, v := range vs[:50] {
		code := q.Encode(v)
		adc := table.Lookup(code)
		exact := vec.L2Sq(query, q.Decode(code))
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
	for _, v := range vs[:50] {
		code := q.Encode(v)
		adc := table.Lookup(code)
		exact := vec.Dot(query, q.Decode(code))
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
	codes := make([][]byte, len(vs))
	for i, v := range vs {
		codes[i] = q.Encode(v)
	}
	query := vs[0] // belongs to cluster 0 (indices 0..59)
	table := q.DistTable(query, Table{})
	type pair struct {
		idx int
		d   float32
	}
	ps := make([]pair, len(vs))
	for i := range vs {
		ps[i] = pair{i, table.Lookup(codes[i])}
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

func TestSerializationRoundTrip(t *testing.T) {
	vs := randomUnitVecs(200, 32, 8)
	q, err := Train(vs, Config{M: 4, K: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := q.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v := vs[3]
	c1, c2 := q.Encode(v), q2.Encode(v)
	if !bytes.Equal(c1, c2) {
		t.Fatal("round-tripped quantizer encodes differently")
	}
	d1, d2 := q.Decode(c1), q2.Decode(c2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatal("round-tripped quantizer decodes differently")
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage must not parse")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty must not parse")
	}
}

// readAllocBudget bounds what Read may allocate for an n-byte image: the
// codebook's up-front 256 KiB plus a constant factor of the floats that
// actually arrive, however large the header claims the codebook is.
func readAllocBudget(n int) uint64 {
	return 320<<10 + 32*uint64(n)
}

// FuzzPQRead feeds Read arbitrary images: it must return a quantizer or an
// error, never panic, allocate no more than the input's length justifies,
// and whatever it accepts must serialize back to the bytes it consumed.
func FuzzPQRead(f *testing.F) {
	q, err := Train(randomUnitVecs(40, 8, 2), Config{M: 2, K: 4, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := q.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, readAllocBudget(len(data)); got > max {
			t.Fatalf("Read allocated %d bytes for a %d-byte image, budget %d", got, len(data), max)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := q.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted image re-serializes as %x, not a prefix of %x", out.Bytes(), data)
		}
	})
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
	code := make([]byte, q.CodeLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.EncodeTo(vs[i%len(vs)], code)
	}
}

func BenchmarkADCLookup(b *testing.B) {
	vs := randomUnitVecs(300, 768, 11)
	q, err := Train(vs, Config{K: 64, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	codes := make([][]byte, len(vs))
	for i, v := range vs {
		codes[i] = q.Encode(v)
	}
	table := q.DistTable(vs[0], Table{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.Lookup(codes[i%len(codes)])
	}
}

func TestCodeDistMatchesDecodedPairs(t *testing.T) {
	vs := randomUnitVecs(300, 64, 20)
	q, err := Train(vs, Config{M: 8, K: 32, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a, b := q.Encode(vs[i]), q.Encode(vs[i+20])
		got := q.CodeDist(a, b)
		want := vec.L2Sq(q.Decode(a), q.Decode(b))
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
	code := q.Encode(vs[0])
	if d := q.CodeDist(code, code); d != 0 {
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
// body, 12 both).
func TestFlatCodebookBitIdentical(t *testing.T) {
	const m, k, n = 6, 32, 120
	for _, subDim := range []int{1, 4, 8, 12} {
		vs := randomUnitVecs(n, m*subDim, int64(40+subDim))
		q, err := Train(vs, Config{M: m, K: k, Seed: 40})
		if err != nil {
			t.Fatal(err)
		}
		cb := nestedCodebooks(q)
		sdc := newRefSDC(cb)
		codes := make([][]byte, n)
		for i, v := range vs {
			codes[i] = q.Encode(v)
			if want := refEncode(cb, subDim, v); !bytes.Equal(codes[i], want) {
				t.Fatalf("subDim %d: Encode(%d) = %v, reference %v", subDim, i, codes[i], want)
			}
		}
		var rows Table
		for i := 0; i < n; i += 7 {
			dist, dot := q.DistTable(vs[i], Table{}), q.DotTable(vs[i], Table{})
			refDist, refDot := refTable(cb, subDim, vs[i], vec.L2Sq), refTable(cb, subDim, vs[i], vec.Dot)
			rows = q.CodeDistRows(codes[i], rows)
			for j, code := range codes {
				if got, want := dist.Lookup(code), refLookup(refDist, code); got != want {
					t.Fatalf("subDim %d: DistTable(%d).Lookup(%d) = %v, reference %v", subDim, i, j, got, want)
				}
				if got, want := dot.Lookup(code), refLookup(refDot, code); got != want {
					t.Fatalf("subDim %d: DotTable(%d).Lookup(%d) = %v, reference %v", subDim, i, j, got, want)
				}
				want := sdc.dist(codes[i], code)
				if got := q.CodeDist(codes[i], code); got != want {
					t.Fatalf("subDim %d: CodeDist(%d, %d) = %v, reference SDC %v", subDim, i, j, got, want)
				}
				if got := q.CodeDist(code, codes[i]); got != want {
					t.Fatalf("subDim %d: CodeDist(%d, %d) = %v, reference SDC %v", subDim, j, i, got, want)
				}
				if got := rows.Lookup(code); got != want {
					t.Fatalf("subDim %d: CodeDistRows(%d).Lookup(%d) = %v, reference SDC %v", subDim, i, j, got, want)
				}
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
	codes := make([][]byte, len(vs))
	for i, v := range vs {
		codes[i] = q.Encode(v)
	}
	dist, dot := other.DistTable(vs[199], Table{}), other.DotTable(vs[198], Table{})
	for i := 0; i < 40; i++ {
		prevDist, prevDot := dist, dot
		dist, dot = q.DistTable(vs[i], dot), q.DotTable(vs[i], prevDist)
		if i > 0 && (&dist.v[0] != &prevDot.v[0] || &dot.v[0] != &prevDist.v[0]) {
			t.Fatalf("query %d: a sized table was reallocated", i)
		}
		freshDist, freshDot := q.DistTable(vs[i], Table{}), q.DotTable(vs[i], Table{})
		for j, code := range codes {
			if got, want := dist.Lookup(code), freshDist.Lookup(code); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("query %d code %d: reused DistTable %v, fresh %v", i, j, got, want)
			}
			if got, want := dot.Lookup(code), freshDot.Lookup(code); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("query %d code %d: reused DotTable %v, fresh %v", i, j, got, want)
			}
		}
	}
}

// BenchmarkCodeDist measures the code-to-code distance in the shape the
// ANNS index uses (dim 256, 4-dim subspaces, 256 centroids): the pairwise
// distance of HNSW neighbour selection.
func BenchmarkCodeDist(b *testing.B) {
	vs := randomUnitVecs(600, 256, 12)
	q, err := Train(vs, Config{M: 64, K: 256, Seed: 12, MaxIter: 2})
	if err != nil {
		b.Fatal(err)
	}
	codes := make([][]byte, len(vs))
	for i, v := range vs {
		codes[i] = q.Encode(v)
	}
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += q.CodeDist(codes[i%len(codes)], codes[(i*7+1)%len(codes)])
	}
	benchSink = sink
}

var benchSink float32
