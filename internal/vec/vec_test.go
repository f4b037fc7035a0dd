package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestDot(t *testing.T) {
	cases := []struct {
		a, b []float32
		want float32
	}{
		{[]float32{}, []float32{}, 0},
		{[]float32{1}, []float32{2}, 2},
		{[]float32{1, 2, 3}, []float32{4, 5, 6}, 32},
		{[]float32{1, 2, 3, 4, 5}, []float32{1, 1, 1, 1, 1}, 15},
		{[]float32{-1, 2, -3, 4}, []float32{5, -6, 7, -8}, -5 - 12 - 21 - 32},
	}
	for _, c := range cases {
		if got := Dot(c.a, c.b); !almostEq(got, c.want, 1e-6) {
			t.Errorf("Dot(%v,%v)=%v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dot([]float32{1, 2}, []float32{1})
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		a := make([]float32, n)
		b := make([]float32, n)
		var want float32
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
			want += a[i] * b[i]
		}
		if got := Dot(a, b); !almostEq(got, want, 1e-4) {
			t.Fatalf("n=%d Dot=%v naive=%v", n, got, want)
		}
	}
}

func TestNormAndNormalize(t *testing.T) {
	v := []float32{3, 4}
	if got := Norm(v); !almostEq(got, 5, 1e-6) {
		t.Fatalf("Norm=%v want 5", got)
	}
	Normalize(v)
	if got := Norm(v); !almostEq(got, 1, 1e-6) {
		t.Fatalf("after Normalize, Norm=%v want 1", got)
	}
	zero := []float32{0, 0, 0}
	Normalize(zero) // must not panic or produce NaN
	for _, x := range zero {
		if x != 0 {
			t.Fatalf("Normalize(zero) changed the vector: %v", zero)
		}
	}
}

func TestNormalizedDoesNotMutate(t *testing.T) {
	v := []float32{2, 0}
	u := Normalized(v)
	if v[0] != 2 {
		t.Fatal("Normalized mutated its input")
	}
	if !almostEq(u[0], 1, 1e-6) {
		t.Fatalf("Normalized = %v", u)
	}
}

func TestL2(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{1, 2, 3, 4, 5}
	if got := L2(a, b); got != 0 {
		t.Fatalf("L2(a,a)=%v want 0", got)
	}
	c := []float32{0, 0}
	d := []float32{3, 4}
	if got := L2(c, d); !almostEq(got, 5, 1e-6) {
		t.Fatalf("L2=%v want 5", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if got := Cosine(a, b); !almostEq(got, 0, 1e-6) {
		t.Fatalf("orthogonal cosine=%v", got)
	}
	if got := Cosine(a, a); !almostEq(got, 1, 1e-6) {
		t.Fatalf("self cosine=%v", got)
	}
	neg := []float32{-1, 0}
	if got := Cosine(a, neg); !almostEq(got, -1, 1e-6) {
		t.Fatalf("opposite cosine=%v", got)
	}
	zero := []float32{0, 0}
	if got := Cosine(a, zero); got != 0 {
		t.Fatalf("zero-vector cosine=%v want 0", got)
	}
}

func TestCosineScaleInvariance(t *testing.T) {
	f := func(raw []float32, scale float32) bool {
		if len(raw) < 2 {
			return true
		}
		// Keep values bounded to avoid float32 overflow artifacts.
		a := make([]float32, len(raw))
		b := make([]float32, len(raw))
		for i, x := range raw {
			a[i] = float32(math.Mod(float64(x), 100))
			b[i] = a[i] + 1
		}
		s := float32(math.Abs(math.Mod(float64(scale), 9))) + 1.5 // in [1.5, 10.5)
		scaled := make([]float32, len(a))
		for i := range a {
			scaled[i] = a[i] * s
		}
		return almostEq(Cosine(a, b), Cosine(scaled, b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	m := Mean([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if !almostEq(m[0], 3, 1e-6) || !almostEq(m[1], 4, 1e-6) {
		t.Fatalf("Mean=%v", m)
	}
}

func TestAddScaledSub(t *testing.T) {
	a := []float32{1, 1}
	AddScaled(a, 2, []float32{3, 4})
	if a[0] != 7 || a[1] != 9 {
		t.Fatalf("AddScaled=%v", a)
	}
	dst := make([]float32, 2)
	Sub(dst, []float32{5, 5}, []float32{2, 3})
	if dst[0] != 3 || dst[1] != 2 {
		t.Fatalf("Sub=%v", dst)
	}
}

func TestTopKKeepsBest(t *testing.T) {
	tk := NewTopK(3)
	scores := []float32{0.1, 0.9, 0.5, 0.7, 0.3, 0.95}
	for id, s := range scores {
		tk.Push(id, s)
	}
	got := tk.Sorted()
	if len(got) != 3 {
		t.Fatalf("len=%d want 3", len(got))
	}
	if got[0].ID != 5 || got[1].ID != 1 || got[2].ID != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Push(1, 0.5)
	tk.Push(2, 0.9)
	got := tk.Sorted()
	if len(got) != 2 || got[0].ID != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	tk := NewTopK(2)
	tk.Push(7, 0.5)
	tk.Push(3, 0.5)
	tk.Push(5, 0.5)
	got := tk.Sorted()
	if got[0].ID != 3 && got[0].ID != 5 && got[0].ID != 7 {
		t.Fatalf("unexpected ids %v", got)
	}
	if !(got[0].ID < got[1].ID) {
		t.Fatalf("ties must sort by ascending ID: %v", got)
	}
}

// TestTopKResetReuses holds a collector reused through Reset and drained
// with AppendSorted to a fresh NewTopK's Sorted, selection after selection.
func TestTopKResetReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var reused TopK
	dst := []Scored{{ID: -1}}
	for round := 0; round < 50; round++ {
		k := 1 + rng.Intn(12)
		fresh := NewTopK(k)
		reused.Reset(k)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			// Few distinct scores, so ties at the boundary are common.
			s := float32(rng.Intn(5))
			fresh.Push(i, s)
			reused.Push(i, s)
		}
		want := fresh.Sorted()
		dst = reused.AppendSorted(dst[:1])
		if dst[0].ID != -1 || !slices.Equal(dst[1:], want) {
			t.Fatalf("round %d: AppendSorted %v, want %v after the first entry", round, dst, want)
		}
	}
}

func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		all := make([]Scored, n)
		tk := NewTopK(k)
		for i := 0; i < n; i++ {
			s := rng.Float32()
			all[i] = Scored{ID: i, Score: s}
			tk.Push(i, s)
		}
		SortScoredDesc(all)
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Sorted()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWorstScore(t *testing.T) {
	tk := NewTopK(2)
	if _, full := tk.WorstScore(); full {
		t.Fatal("empty collector reported full")
	}
	tk.Push(0, 0.8)
	tk.Push(1, 0.6)
	w, full := tk.WorstScore()
	if !full || !almostEq(w, 0.6, 1e-6) {
		t.Fatalf("WorstScore=%v full=%v", w, full)
	}
	tk.Push(2, 0.7)
	w, _ = tk.WorstScore()
	if !almostEq(w, 0.7, 1e-6) {
		t.Fatalf("WorstScore after push=%v", w)
	}
}

// TestDotMatchesFloat64Reference checks the unrolled kernel against a plain
// float64 accumulation across lengths that exercise every tail case of the
// 8-wide loop (0..9 plus larger odd sizes).
func TestDotMatchesFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 192, 768, 1001}
	for _, n := range lengths {
		a := make([]float32, n)
		b := make([]float32, n)
		var ref float64
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
			ref += float64(a[i]) * float64(b[i])
		}
		got := Dot(a, b)
		// float32 accumulation error grows with n; 1e-4 relative slack on
		// unit-scale inputs is far above what reordering can introduce.
		tol := 1e-4 * (1 + math.Abs(ref))
		if math.Abs(float64(got)-ref) > tol {
			t.Fatalf("n=%d Dot=%v float64 ref=%v", n, got, ref)
		}
	}
}

// TestL2SqMatchesFloat64Reference is the same reference check for L2Sq.
func TestL2SqMatchesFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65, 192, 768, 1001}
	for _, n := range lengths {
		a := make([]float32, n)
		b := make([]float32, n)
		var ref float64
		for i := range a {
			a[i] = rng.Float32()*2 - 1
			b[i] = rng.Float32()*2 - 1
			d := float64(a[i]) - float64(b[i])
			ref += d * d
		}
		got := L2Sq(a, b)
		tol := 1e-4 * (1 + math.Abs(ref))
		if math.Abs(float64(got)-ref) > tol {
			t.Fatalf("n=%d L2Sq=%v float64 ref=%v", n, got, ref)
		}
	}
}

// refDot and refL2Sq are the scalar kernels as they stood before any
// single-pair assembly existed, kept here verbatim: the reference every
// build of Dot and L2Sq must match bit for bit.
func refDot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		s0 += a[i]*b[i] + a[i+4]*b[i+4]
		s1 += a[i+1]*b[i+1] + a[i+5]*b[i+5]
		s2 += a[i+2]*b[i+2] + a[i+6]*b[i+6]
		s3 += a[i+3]*b[i+3] + a[i+7]*b[i+7]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

func refL2Sq(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d0 := a[i] - b[i]
		d4 := a[i+4] - b[i+4]
		s0 += d0*d0 + d4*d4
		d1 := a[i+1] - b[i+1]
		d5 := a[i+5] - b[i+5]
		s1 += d1*d1 + d5*d5
		d2 := a[i+2] - b[i+2]
		d6 := a[i+6] - b[i+6]
		s2 += d2*d2 + d6*d6
		d3 := a[i+3] - b[i+3]
		d7 := a[i+7] - b[i+7]
		s3 += d3*d3 + d7*d7
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// TestPairKernelsBitIdentical holds Dot and L2Sq to the scalar reference by
// bit pattern: every length around the 8-wide body and the assembly cut,
// the dimensions the system runs at, operands that start at every offset of
// a 16-byte line (the kernels use unaligned loads), and the values where a
// reordered or fused operation would show first. On the same operands it
// holds Dot(a, b) to Dot(b, a), and a query's rows scored through
// DotBatch(rows, {q}) to Dot(q, row) — the call shape ExS verifies with.
func TestPairKernelsBitIdentical(t *testing.T) {
	check := func(t *testing.T, what string, a, b []float32) {
		t.Helper()
		if got, want := Dot(a, b), refDot(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s len=%d: Dot=%#08x ref=%#08x", what, len(a), math.Float32bits(got), math.Float32bits(want))
		}
		if got, want := L2Sq(a, b), refL2Sq(a, b); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s len=%d: L2Sq=%#08x ref=%#08x", what, len(a), math.Float32bits(got), math.Float32bits(want))
		}
		// Dot is symmetric bit for bit, so a single query may score rows as
		// DotBatch's "queries" against it: five rows run one 4-row block
		// and one left over.
		if ab, ba := Dot(a, b), Dot(b, a); math.Float32bits(ab) != math.Float32bits(ba) {
			t.Fatalf("%s len=%d: Dot(a, b)=%#08x Dot(b, a)=%#08x", what, len(a), math.Float32bits(ab), math.Float32bits(ba))
		}
		rows := [][]float32{b, a, b, b, a}
		var out [5]float32
		DotBatch(rows, [][]float32{a}, out[:])
		for j, row := range rows {
			if got, want := out[j], Dot(a, row); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%s len=%d: DotBatch(rows, {q})[%d]=%#08x Dot(q, rows[%d])=%#08x", what, len(a), j, math.Float32bits(got), j, math.Float32bits(want))
			}
		}
	}
	rng := rand.New(rand.NewSource(17))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			// Mixed magnitudes, so that the order of additions matters.
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
		return x
	}
	lengths := []int{192, 256, 768}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for rep := 0; rep < 4; rep++ {
			check(t, "random", fill(n), fill(n))
		}
	}
	for offA := 0; offA < 4; offA++ {
		for offB := 0; offB < 4; offB++ {
			for _, n := range []int{16, 23, 64, 257} {
				check(t, "unaligned", fill(n + offA)[offA:], fill(n + offB)[offB:])
			}
		}
	}
	// One special value at a time, at every position of a 40-long operand
	// (body lanes and tail), against finite data: the result's bits —
	// which NaN included — are then fixed by IEEE 754 alone. Two different
	// NaNs meeting in one operation would not be: x86 keeps the first
	// operand's payload and Go does not fix operand order.
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		subnormal, -subnormal, math.SmallestNonzeroFloat32, math.MaxFloat32,
		-math.MaxFloat32, float32(math.Copysign(0, -1)),
	}
	for _, sp := range specials {
		for pos := 0; pos < 40; pos++ {
			a, b := fill(40), fill(40)
			a[pos] = sp
			check(t, "special in a", a, b)
			check(t, "special in b", b, a)
			b[pos] = 0 // Inf·0 and subnormal·0
			check(t, "special against zero", a, b)
			b[pos] = sp // Inf−Inf, subnormal²
			check(t, "special against itself", a, b)
		}
	}
	// All-subnormal operands: products underflow, differences stay exact.
	a, b := make([]float32, 48), make([]float32, 48)
	for i := range a {
		a[i] = math.Float32frombits(uint32(rng.Intn(1 << 23)))
		b[i] = -math.Float32frombits(uint32(rng.Intn(1 << 23)))
	}
	check(t, "subnormal", a, b)
}

// refAddScaled is AddScaled's scalar reference: one rounded product and
// one rounded sum per element.
func refAddScaled(a []float32, s float32, b []float32) {
	for i := range a {
		p := s * b[i]
		a[i] += p
	}
}

// TestAddScaledMatchesScalar holds AddScaled to the scalar loop by bit
// pattern at every length from 0 to 67 (below the assembly cut, whole
// 8-wide blocks and every tail) and at the embedding dimensions, with
// operands at every offset of a 16-byte line and one special value at a
// time in a, in b or as the scale. The encoder pools token vectors with
// it, so a query's embedding — and every ranking — rests on this identity.
func TestAddScaledMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
		return x
	}
	check := func(what string, a []float32, s float32, b []float32) {
		t.Helper()
		got := append([]float32(nil), a...)
		want := append([]float32(nil), a...)
		AddScaled(got, s, b)
		refAddScaled(want, s, b)
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s len=%d s=%v: [%d] = %#08x, want %#08x", what, len(a), s, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	lengths := []int{256, 768}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for rep := 0; rep < 4; rep++ {
			check("random", fill(n), float32(rng.NormFloat64()), fill(n))
		}
	}
	for offA := 0; offA < 4; offA++ {
		for offB := 0; offB < 4; offB++ {
			for _, n := range []int{16, 23, 64, 257} {
				check("unaligned", fill(n + offA)[offA:], 0.37, fill(n + offB)[offB:])
			}
		}
	}
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		subnormal, -subnormal, math.SmallestNonzeroFloat32, math.MaxFloat32,
		-math.MaxFloat32, 0, float32(math.Copysign(0, -1)),
	}
	for _, sp := range specials {
		for pos := 0; pos < 40; pos++ {
			a, b := fill(40), fill(40)
			a[pos] = sp
			check("special in a", a, 1.5, b)
			a, b = fill(40), fill(40)
			b[pos] = sp
			check("special in b", a, 1.5, b)
			b[pos] = 0 // Inf·0
			check("special scale against zero", a, sp, b)
		}
		check("special scale", fill(40), sp, fill(40))
	}
	// Products that underflow to subnormals or zero.
	a, b := make([]float32, 48), make([]float32, 48)
	for i := range a {
		a[i] = math.Float32frombits(uint32(rng.Intn(1 << 23)))
		b[i] = -math.Float32frombits(uint32(rng.Intn(1 << 23)))
	}
	check("subnormal", a, 1e-3, b)
	check("subnormal", a, float32(math.Copysign(0, -1)), b)
}

// benchPair times one single-pair kernel at the dimensions the system runs
// it at — 16 (the reduced space of the CTS build), 256 (the benchmark's
// embeddings), 768 (the paper's) — with the scalar reference beside it.
func benchPair(b *testing.B, kernel, scalar func(a, b []float32) float32) {
	for _, dim := range []int{16, 256, 768} {
		x := make([]float32, dim)
		y := make([]float32, dim)
		for i := range x {
			x[i] = float32(i) * 0.001
			y[i] = float32(dim-i) * 0.001
		}
		for _, k := range []struct {
			name string
			fn   func(a, b []float32) float32
		}{{"kernel", kernel}, {"scalar", scalar}} {
			b.Run(fmt.Sprintf("dim=%d/%s", dim, k.name), func(b *testing.B) {
				b.SetBytes(int64(2 * 4 * dim))
				var sink float32
				for i := 0; i < b.N; i++ {
					sink += k.fn(x, y)
				}
				benchSink = sink
			})
		}
	}
}

var benchSink float32

func BenchmarkDot(b *testing.B)  { benchPair(b, Dot, refDot) }
func BenchmarkL2Sq(b *testing.B) { benchPair(b, L2Sq, refL2Sq) }

// TestRowKernelsBitIdentical holds L2SqRow and DotRow to L2Sq and Dot per
// entry by bit pattern, with the operands of L2Sq in both orders — k-means
// seeding reads a row of one point against all others where the pairwise
// loop had each point first. It covers every width around the 4-dim body
// and the 8-wide unroll, rows with a len%4 tail, and one special value at a
// time in x or in a point.
func TestRowKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	fill := func(x []float32) {
		for i := range x {
			x[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
		}
	}
	check := func(what string, x, cents []float32) {
		t.Helper()
		d := len(x)
		n := len(cents) / d
		l2, dot := make([]float32, n), make([]float32, n)
		L2SqRow(x, cents, l2)
		DotRow(x, cents, dot)
		for c := 0; c < n; c++ {
			y := cents[c*d : (c+1)*d]
			for _, p := range []struct {
				name      string
				got, want float32
			}{
				{"L2SqRow vs L2Sq(x, c)", l2[c], L2Sq(x, y)},
				{"L2SqRow vs L2Sq(c, x)", l2[c], L2Sq(y, x)},
				{"DotRow vs Dot(x, c)", dot[c], Dot(x, y)},
			} {
				if math.Float32bits(p.got) != math.Float32bits(p.want) {
					t.Fatalf("%s dim %d, point %d of %d: %s = %#08x, want %#08x",
						what, d, c, n, p.name, math.Float32bits(p.got), math.Float32bits(p.want))
				}
			}
		}
	}
	subnormal := math.Float32frombits(0x00000123)
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		subnormal, -subnormal, math.MaxFloat32, float32(math.Copysign(0, -1)),
	}
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 20} {
		for _, n := range []int{0, 1, 3, 4, 5, 8, 11, 30} {
			x, cents := make([]float32, d), make([]float32, n*d)
			fill(x)
			fill(cents)
			check("random", x, cents)
		}
		x, cents := make([]float32, d), make([]float32, 6*d)
		for _, sp := range specials {
			for p := range x {
				fill(x)
				fill(cents)
				x[p] = sp
				check(fmt.Sprintf("x[%d] = %v", p, sp), x, cents)
			}
			for p := range cents {
				fill(x)
				fill(cents)
				cents[p] = sp
				check(fmt.Sprintf("point %d dim %d = %v", p/d, p%d, sp), x, cents)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("L2SqRow accepted points of the wrong total length")
		}
	}()
	L2SqRow(make([]float32, 4), make([]float32, 15), make([]float32, 4))
}
