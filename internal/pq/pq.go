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

// BlockSlots is how many codes one block of a Codes arena holds.
const BlockSlots = 8

// Codes is an arena of codes, one per slot, in blocks of BlockSlots slots
// laid out subspace-major: byte (b·M + s)·8 + j is code byte s of slot
// 8b + j. The eight codes of a block keep their bytes of one subspace
// together, so LookupBatch loads them with one 8-byte load and adds each
// into its own slot's sum; one slot's code is its M bytes at stride 8. The
// last block is padded with zero bytes, which LookupBatch scores and drops.
// An arena is filled by Encode and read by Lookup, LookupBatch, CodeDist,
// CodeDistRows and Decode of a quantizer with its M.
type Codes struct {
	m, n  int
	bytes []byte
}

// NewCodes returns an arena of n zero codes, sized for q.
func (q *Quantizer) NewCodes(n int) *Codes {
	return &Codes{m: q.m, n: n, bytes: make([]byte, (n+BlockSlots-1)/BlockSlots*BlockSlots*q.m)}
}

// Len returns the number of slots.
func (c *Codes) Len() int { return c.n }

// Size returns the arena's bytes, the last block's padding included.
func (c *Codes) Size() int { return len(c.bytes) }

// code returns slot i's code: byte s at s·BlockSlots.
func (c *Codes) code(i int) []byte {
	if uint(i) >= uint(c.n) {
		panic(fmt.Sprintf("pq: slot %d of %d", i, c.n))
	}
	off := i/BlockSlots*BlockSlots*c.m + i%BlockSlots
	return c.bytes[off : off+(c.m-1)*BlockSlots+1]
}

// checkCodes panics unless codes holds m bytes per slot: a shorter code
// would make a distance a partial sum, a longer one read past the codebook
// or the table — which the byte-indexed kernels must never be handed.
func checkCodes(codes *Codes, m int) {
	if codes.m != m {
		panic(fmt.Sprintf("pq: code len %d, want %d", codes.m, m))
	}
}

// Encode quantizes v into slot of codes.
func (q *Quantizer) Encode(v []float32, codes *Codes, slot int) {
	if len(v) != q.dim {
		panic(fmt.Sprintf("pq: encode dim %d, want %d", len(v), q.dim))
	}
	checkCodes(codes, q.m)
	code := codes.code(slot)
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
		code[s*BlockSlots] = byte(best)
	}
}

// Decode reconstructs the centroid approximation of slot's code.
func (q *Quantizer) Decode(codes *Codes, slot int) []float32 {
	checkCodes(codes, q.m)
	code := codes.code(slot)
	out := make([]float32, q.dim)
	for s := 0; s < q.m; s++ {
		copy(out[s*q.subDim:], q.centroid(s, int(code[s*BlockSlots])))
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

// Lookup sums the table partials for slot's code, in subspace order from
// +0: approximate squared distance for DistTable and CodeDistRows,
// approximate dot product for DotTable. codes must hold one byte per row
// of the table.
func (t Table) Lookup(codes *Codes, slot int) float32 {
	checkCodes(codes, len(t.v)/max(t.k, 1))
	code := codes.code(slot)
	if kernelAsm && t.k == 256 {
		return lookupAsm(t.v, code, codes.m)
	}
	var sum float32
	v := t.v
	for s := 0; s < codes.m; s++ {
		sum += v[code[s*BlockSlots]]
		v = v[t.k:]
	}
	return sum
}

// LookupBatch sets out[i] to Lookup(codes, lo+i) for every i, bit for bit:
// the exhaustive scan's distances. It scores whole blocks of the arena:
// slot 8b + j's sum is chain j of block b, which starts at +0 and adds the
// slot's partials in subspace order, as Lookup does, so every sum rounds
// exactly as Lookup's while the eight chains' adds overlap. At K = 256 — the
// only K the ANNS index trains — an assembly body runs the blocks on amd64
// (DESIGN.md §10, "PQ kernels"); elsewhere a Go body does. A last block
// that out covers only in part is scored whole into a local buffer. codes
// must hold one byte per row of the table and slots lo..lo+len(out)−1, and
// lo must start a block.
func (t Table) LookupBatch(codes *Codes, lo int, out []float32) {
	m := len(t.v) / max(t.k, 1)
	checkCodes(codes, m)
	if lo < 0 || lo%BlockSlots != 0 || len(out) > codes.n-lo {
		panic(fmt.Sprintf("pq: slots %d..%d of %d, from a block's start", lo, lo+len(out)-1, codes.n))
	}
	blocks := codes.bytes[lo*m:]
	full := len(out) / BlockSlots * BlockSlots
	t.lookupBlocks(blocks, m, out[:full])
	if tail := out[full:]; len(tail) > 0 {
		var buf [BlockSlots]float32
		t.lookupBlocks(blocks[full*m:], m, buf[:])
		copy(tail, buf[:])
	}
}

// lookupBlocks sets out[8b + j] to the sum of slot j of block b of blocks,
// whole blocks of M subspaces each.
func (t Table) lookupBlocks(blocks []byte, m int, out []float32) {
	if kernelAsm && t.k == 256 {
		lookupBlocksAsm(t.v, blocks, m, out)
		return
	}
	lookupBlocksGo(t.v, t.k, blocks, m, out)
}

// lookupBlocksGo is lookupBlocks' Go body over a table of k centroids per
// row.
func lookupBlocksGo(v []float32, k int, blocks []byte, m int, out []float32) {
	for b := 0; b < len(out)/BlockSlots; b++ {
		blk := blocks[b*BlockSlots*m : (b+1)*BlockSlots*m]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for s := 0; s < m; s++ {
			row, c := v[s*k:(s+1)*k], (*[BlockSlots]byte)(blk[s*BlockSlots:])
			s0 += row[c[0]]
			s1 += row[c[1]]
			s2 += row[c[2]]
			s3 += row[c[3]]
			s4 += row[c[4]]
			s5 += row[c[5]]
			s6 += row[c[6]]
			s7 += row[c[7]]
		}
		o := (*[BlockSlots]float32)(out[b*BlockSlots:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// CodeDist estimates the squared Euclidean distance between the codes of
// slots a and b without decoding them (symmetric distance computation):
// the sum over subspaces of the squared distance between the two codes'
// centroids, read straight from the codebook. Used for graph construction
// once raw vectors have been dropped after compression: it is the pairwise
// distance of HNSW neighbour selection, several thousand calls per
// inserted vector.
func (q *Quantizer) CodeDist(codes *Codes, a, b int) float32 {
	checkCodes(codes, q.m)
	ca, cb := codes.code(a), codes.code(b)
	sd, stride := q.subDim, q.k*q.subDim
	cents := q.codebook
	var d float32
	if sd == 4 {
		if kernelAsm && q.k == 256 {
			return codeDistAsm(cents, ca, cb, q.m)
		}
		// The ANNS index's subspace width (dim/4 subspaces of 4 dims).
		// Unrolled, with one bounds check per centroid: the same four
		// squares added in the same order as vec.L2Sq's scalar tail.
		for s := 0; s < q.m; s++ {
			x := (*[4]float32)(cents[int(ca[s*BlockSlots])*4:])
			y := (*[4]float32)(cents[int(cb[s*BlockSlots])*4:])
			d0, d1, d2, d3 := x[0]-y[0], x[1]-y[1], x[2]-y[2], x[3]-y[3]
			d += d0*d0 + d1*d1 + d2*d2 + d3*d3
			cents = cents[stride:]
		}
		return d
	}
	for s := 0; s < q.m; s++ {
		d += vec.L2Sq(cents[int(ca[s*BlockSlots])*sd:][:sd], cents[int(cb[s*BlockSlots])*sd:][:sd])
		cents = cents[stride:]
	}
	return d
}

// CodeDistRows fills dst with the partials of CodeDist for slot's code and
// returns it: afterwards dst.Lookup(codes, b) == q.CodeDist(codes, slot, b)
// bit for bit, at M loads instead of M centroid distances. A dst not sized
// for q — the zero Table, on first use — is replaced by a fresh one, so a
// caller keeps one table and pays the allocation once. A construction beam
// measures hundreds of items against one inserted target, which is what
// pays for the M·K partials computed here.
func (q *Quantizer) CodeDistRows(codes *Codes, slot int, dst Table) Table {
	checkCodes(codes, q.m)
	code := codes.code(slot)
	dst = q.reuseTable(dst)
	for s := 0; s < q.m; s++ {
		vec.L2SqRow(q.centroid(s, int(code[s*BlockSlots])), q.subspace(s), dst.v[s*q.k:(s+1)*q.k])
	}
	return dst
}
