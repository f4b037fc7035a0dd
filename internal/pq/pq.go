// Package pq implements Product Quantization (Jégou, Douze, Schmid; TPAMI
// 2011) for compressing high-dimensional float32 vectors into short codes
// and for computing approximate distances directly on the codes via
// asymmetric distance computation (ADC) lookup tables.
//
// A d-dimensional vector is split into M contiguous subvectors of d/M
// dimensions; each subspace gets its own k-means codebook of K centroids
// (K ≤ 256 so one code byte per subspace). A vector is stored as M bytes.
package pq

import (
	"errors"
	"fmt"
	"math"

	"semdisco/internal/kmeans"
	"semdisco/internal/par"
	"semdisco/internal/vec"
)

// Quantizer is a trained product quantizer. It is immutable after Train and
// safe for concurrent use.
type Quantizer struct {
	dim    int
	m      int // number of subspaces
	k      int // centroids per subspace (≤ 256)
	subDim int
	// codebook holds every centroid back to back: centroid c of subspace s
	// is the subDim floats at (s·k + c)·subDim. One flat array (256 KiB at
	// dim 256) keeps every distance below a walk over contiguous memory.
	codebook []float32
}

// centroid returns centroid c of subspace s.
func (q *Quantizer) centroid(s, c int) []float32 {
	off := (s*q.k + c) * q.subDim
	return q.codebook[off : off+q.subDim : off+q.subDim]
}

// subspace returns the k centroids of subspace s, back to back.
func (q *Quantizer) subspace(s int) []float32 {
	n := q.k * q.subDim
	return q.codebook[s*n : (s+1)*n : (s+1)*n]
}

// Config controls training.
type Config struct {
	// M is the number of subspaces; must divide the dimension. Defaults to
	// dim/8 clamped to [1, 96] (96 subspaces of 8 dims for 768-d vectors).
	M int
	// K is the number of centroids per subspace, at most 256. Defaults to
	// 256, reduced automatically when the training set is smaller.
	K int
	// Seed drives codebook training.
	Seed int64
	// MaxIter caps k-means iterations per subspace. Defaults to 15.
	MaxIter int
	// Workers bounds training parallelism. The M subspaces train
	// independently (each with its own derived seed), so training is
	// sharded across them; when there are fewer subspaces than workers the
	// surplus flows into each subspace's k-means. Results are identical
	// for every worker count. 0 or 1 trains serially.
	Workers int
}

// Train builds a quantizer from a sample of vectors. All vectors must share
// one dimension. Training cost is M independent k-means runs.
func Train(sample [][]float32, cfg Config) (*Quantizer, error) {
	if len(sample) == 0 {
		return nil, errors.New("pq: empty training sample")
	}
	dim := len(sample[0])
	if dim == 0 {
		return nil, errors.New("pq: zero-dimensional vectors")
	}
	m := cfg.M
	if m == 0 {
		m = dim / 8
		if m < 1 {
			m = 1
		}
		if m > 96 {
			m = 96
		}
		for dim%m != 0 {
			m--
		}
	}
	if dim%m != 0 {
		return nil, fmt.Errorf("pq: M=%d does not divide dim=%d", m, dim)
	}
	k := cfg.K
	if k == 0 {
		k = 256
	}
	if k > 256 {
		return nil, fmt.Errorf("pq: K=%d exceeds one byte per code", k)
	}
	if k > len(sample) {
		k = len(sample)
	}
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = 15
	}
	for i, v := range sample {
		if len(v) != dim {
			return nil, fmt.Errorf("pq: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}
	subDim := dim / m
	q := &Quantizer{dim: dim, m: m, k: k, subDim: subDim,
		codebook: make([]float32, m*k*subDim)}
	workers := par.Workers(cfg.Workers)
	// The M subquantizers are independent k-means problems with disjoint
	// seeds, so they shard across workers directly; leftover parallelism
	// (workers > M) is handed to each subspace's k-means, whose result is
	// worker-count-invariant — either way the codebooks come out identical.
	innerWorkers := 1
	if m < workers {
		innerWorkers = workers
	}
	par.Each(m, workers, func(s int) {
		lo := s * subDim
		sub := make([][]float32, len(sample))
		for i, v := range sample {
			sub[i] = v[lo : lo+subDim]
		}
		res := kmeans.Run(sub, kmeans.Config{
			K: k, Seed: cfg.Seed + int64(s), MaxIter: maxIter, Workers: innerWorkers,
		})
		for c, cent := range res.Centroids {
			copy(q.centroid(s, c), cent)
		}
	})
	return q, nil
}

// Dim returns the dimensionality of vectors this quantizer accepts.
func (q *Quantizer) Dim() int { return q.dim }

// CodeLen returns the number of bytes in one encoded vector (= M).
func (q *Quantizer) CodeLen() int { return q.m }

// K returns the number of centroids per subspace.
func (q *Quantizer) K() int { return q.k }

// Encode quantizes v into a fresh M-byte code.
func (q *Quantizer) Encode(v []float32) []byte {
	code := make([]byte, q.m)
	q.EncodeTo(v, code)
	return code
}

// EncodeTo quantizes v into code, which must have length M.
func (q *Quantizer) EncodeTo(v []float32, code []byte) {
	if len(v) != q.dim {
		panic(fmt.Sprintf("pq: encode dim %d, want %d", len(v), q.dim))
	}
	checkCodeLen(code, q.m)
	var buf [256]float32 // K ≤ 256
	row := buf[:q.k]
	for s := 0; s < q.m; s++ {
		vec.L2SqRow(v[s*q.subDim:(s+1)*q.subDim], q.subspace(s), row)
		best, bestD := 0, float32(math.MaxFloat32)
		for c, d := range row {
			if d < bestD {
				best, bestD = c, d
			}
		}
		code[s] = byte(best)
	}
}

// checkCodeLen panics unless code has one byte per subspace: a shorter code
// would make a distance a partial sum, a longer one read past the codebook
// or the table — which the byte-indexed kernels must never be handed.
func checkCodeLen(code []byte, m int) {
	if len(code) != m {
		panic(fmt.Sprintf("pq: code len %d, want %d", len(code), m))
	}
}

// Decode reconstructs the centroid approximation of a code.
func (q *Quantizer) Decode(code []byte) []float32 {
	checkCodeLen(code, q.m)
	out := make([]float32, q.dim)
	for s := 0; s < q.m; s++ {
		copy(out[s*q.subDim:], q.centroid(s, int(code[s])))
	}
	return out
}

// Table is an M × K lookup table over one fixed left-hand side — a query
// (DistTable, DotTable) or a stored code (CodeDistRows): entry (s, c) is
// the partial squared distance, or partial dot product, between that side's
// s-th subvector and centroid c. It is one flat allocation, row s at s·K.
// The zero Table is empty.
type Table struct {
	k int
	v []float32
}

// reuseTable returns dst when it is sized for q, and a fresh table when it
// is not — the zero Table, on first use — so a caller that keeps one table
// pays the allocation once. Every entry of the result is overwritten by the
// table builders, so nothing of dst's previous contents survives.
func (q *Quantizer) reuseTable(dst Table) Table {
	if dst.k != q.k || len(dst.v) != q.m*q.k {
		return Table{k: q.k, v: make([]float32, q.m*q.k)}
	}
	return dst
}

// DistTable fills dst with squared-L2 partials for the query, so that
// approximate distance to any code is M table lookups, and returns it. dst
// is reused as CodeDistRows reuses its table.
func (q *Quantizer) DistTable(query []float32, dst Table) Table {
	return q.queryTable(query, dst, vec.L2SqRow)
}

// DotTable fills dst with inner-product partials, used when ranking by
// cosine over unit vectors (higher is better), and returns it. dst is
// reused as CodeDistRows reuses its table.
func (q *Quantizer) DotTable(query []float32, dst Table) Table {
	return q.queryTable(query, dst, vec.DotRow)
}

func (q *Quantizer) queryTable(query []float32, dst Table, fillRow func(x, cents, row []float32)) Table {
	if len(query) != q.dim {
		panic(fmt.Sprintf("pq: query dim %d, want %d", len(query), q.dim))
	}
	t := q.reuseTable(dst)
	for s := 0; s < q.m; s++ {
		fillRow(query[s*q.subDim:(s+1)*q.subDim], q.subspace(s), t.v[s*q.k:(s+1)*q.k])
	}
	return t
}

// Lookup sums the table partials for code: approximate squared distance for
// DistTable and CodeDistRows, approximate dot product for DotTable. code
// must hold one byte per row of the table.
func (t Table) Lookup(code []byte) float32 {
	if len(code)*t.k != len(t.v) {
		checkCodeLen(code, len(t.v)/max(t.k, 1))
	}
	if kernelAsm && t.k == 256 {
		return lookupAsm(t.v, code)
	}
	var sum float32
	v := t.v
	for _, c := range code {
		sum += v[c]
		v = v[t.k:]
	}
	return sum
}

// LookupBatch sets out[i] to Lookup(codes[i]) for every code, bit for bit:
// the exhaustive scan's distances. Over a K = 256 table — the only K the
// ANNS index trains — it runs four codes per pass over the table's rows,
// each with its own running total that starts at +0 and adds its partials
// in row order, as Lookup does: the four independent add chains overlap
// instead of one code's M dependent adds running alone, and every total
// rounds exactly as Lookup's. The len(codes)%4 left over, and every code of
// a table of any other K, take Lookup itself. Every code must hold one byte
// per row of the table; out must have room for one distance per code.
func (t Table) LookupBatch(codes [][]byte, out []float32) {
	out = out[:len(codes)]
	m := len(t.v) / max(t.k, 1)
	for _, code := range codes {
		if len(code)*t.k != len(t.v) {
			checkCodeLen(code, m)
		}
	}
	i := 0
	if t.k == 256 {
		for ; i+4 <= len(codes); i += 4 {
			out[i], out[i+1], out[i+2], out[i+3] = lookup4x256(t.v, codes[i], codes[i+1], codes[i+2], codes[i+3])
		}
	}
	for ; i < len(codes); i++ {
		out[i] = t.Lookup(codes[i])
	}
}

// lookup4x256 is four Lookups over a K = 256 table, where a code byte
// indexes a row without a bounds check.
func lookup4x256(v []float32, c0, c1, c2, c3 []byte) (s0, s1, s2, s3 float32) {
	c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
	for s, b0 := range c0 {
		row := (*[256]float32)(v[s*256:])
		s0 += row[b0]
		s1 += row[c1[s]]
		s2 += row[c2[s]]
		s3 += row[c3[s]]
	}
	return
}

// CodeDist estimates the squared Euclidean distance between two codes
// without decoding them (symmetric distance computation): the sum over
// subspaces of the squared distance between the two codes' centroids, read
// straight from the codebook. Used for graph construction once raw vectors
// have been dropped after compression: it is the pairwise distance of HNSW
// neighbour selection, several thousand calls per inserted vector.
func (q *Quantizer) CodeDist(a, b []byte) float32 {
	checkCodeLen(a, q.m)
	checkCodeLen(b, q.m)
	sd, stride := q.subDim, q.k*q.subDim
	cents := q.codebook
	var d float32
	if sd == 4 {
		if kernelAsm && q.k == 256 {
			return codeDistAsm(cents, a, b)
		}
		// The ANNS index's subspace width (dim/4 subspaces of 4 dims).
		// Unrolled, with one bounds check per centroid: the same four
		// squares added in the same order as vec.L2Sq's scalar tail.
		for s := range a {
			x := (*[4]float32)(cents[int(a[s])*4:])
			y := (*[4]float32)(cents[int(b[s])*4:])
			d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
			d += d0*d0 + d1*d1 + d2*d2 + d3*d3
			cents = cents[stride:]
		}
		return d
	}
	for s := range a {
		d += vec.L2Sq(cents[int(a[s])*sd:][:sd], cents[int(b[s])*sd:][:sd])
		cents = cents[stride:]
	}
	return d
}

// CodeDistRows fills dst with the partials of CodeDist for one fixed code
// and returns it: afterwards dst.Lookup(b) == q.CodeDist(code, b) bit for
// bit, at M loads instead of M centroid distances. A dst not sized for q —
// the zero Table, on first use — is replaced by a fresh one, so a caller
// keeps one table and pays the allocation once. A construction beam
// measures hundreds of items against one inserted target, which is what
// pays for the M·K partials computed here.
func (q *Quantizer) CodeDistRows(code []byte, dst Table) Table {
	checkCodeLen(code, q.m)
	dst = q.reuseTable(dst)
	for s := 0; s < q.m; s++ {
		vec.L2SqRow(q.centroid(s, int(code[s])), q.subspace(s), dst.v[s*q.k:(s+1)*q.k])
	}
	return dst
}
