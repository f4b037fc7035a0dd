package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/segment"
	"semdisco/internal/table"
	"semdisco/internal/vectordb"
)

// batchQueries builds nq encoded test queries with varied texts.
func batchQueries(emb *Embedded, nq int) [][]float32 {
	qs := make([][]float32, nq)
	for i := range qs {
		qs[i] = emb.Enc.Encode(word(i, 0) + " " + word(i+1, 2) + " " + word(i*3, 1))
	}
	return qs
}

// assertRowsIdentical fails unless every batch row equals the sequential
// answer match for match, score bits included.
func assertRowsIdentical(t *testing.T, name string, seq, batch [][]Match) {
	t.Helper()
	if len(seq) != len(batch) {
		t.Fatalf("%s: %d rows vs %d", name, len(seq), len(batch))
	}
	for i := range seq {
		if len(seq[i]) != len(batch[i]) {
			t.Fatalf("%s row %d: %d matches sequential vs %d batched", name, i, len(seq[i]), len(batch[i]))
		}
		for j := range seq[i] {
			if seq[i][j] != batch[i][j] {
				t.Errorf("%s row %d match %d: sequential %+v vs batched %+v", name, i, j, seq[i][j], batch[i][j])
			}
		}
	}
}

// TestExSBatchBitIdentical pins the batch invariant: the fused blocked scan
// returns bit-identical rows to per-query SearchEncoded calls and to the
// value-by-value oracle, with and without a threshold filtering part of
// the corpus, on both centroid kernel bodies.
func TestExSBatchBitIdentical(t *testing.T) {
	fed := testFederation(t, 60)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opt  ExSOptions
	}{
		{"mean", ExSOptions{}},
		{"threshold", ExSOptions{Threshold: 0.05}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachHalfBody(t, func(t *testing.T) {
				s := NewExS(emb, tc.opt)
				qs := batchQueries(emb, 17)
				ks := make([]int, len(qs))
				seq := make([][]Match, len(qs))
				for i := range qs {
					ks[i] = 1 + i%9
					m, err := s.SearchEncoded(ctx, qs[i], ks[i])
					if err != nil {
						t.Fatalf("sequential: %v", err)
					}
					seq[i] = m
				}
				batch, err := s.SearchEncodedBatch(ctx, qs, ks, nil)
				if err != nil {
					t.Fatalf("batch: %v", err)
				}
				assertRowsIdentical(t, tc.name, seq, batch)
				want := make([][]Match, len(qs))
				for i := range qs {
					want[i] = oracleRank(emb, qs[i], ks[i], tc.opt.Threshold)
				}
				assertRowsIdentical(t, tc.name+" vs oracle", want, batch)

				// Blocks in which 1, 2, 3, 4, 5 and 9 queries verify the
				// same relations — copies of one query at scales near 1 —
				// and whose workers each verify one or several of them.
				for _, nq := range []int{1, 2, 3, 4, 5, 9} {
					for _, base := range qs[:3] {
						block := make([][]float32, nq)
						bks := make([]int, nq)
						want := make([][]Match, nq)
						for i := range block {
							block[i] = make([]float32, len(base))
							for j, x := range base {
								block[i][j] = x * (1 + float32(i)/64)
							}
							bks[i] = 10
							want[i] = oracleRank(emb, block[i], bks[i], tc.opt.Threshold)
						}
						got, err := s.SearchEncodedBatch(ctx, block, bks, nil)
						if err != nil {
							t.Fatalf("batch of %d: %v", nq, err)
						}
						assertRowsIdentical(t, fmt.Sprintf("%s, %d queries on the same relations, vs oracle", tc.name, nq), want, got)
					}
				}
			})
		})
	}
}

// TestExSCostIndependentOfBlock: a query is charged the same centroid rows
// and verified values as a block of one and inside a 17-query batch (four
// 4-query groups and one left over), at dims on and off the kernels'
// 16-float block. The verified set follows ã's bits, so this pins the
// centroid kernel's promise that a pair scores alike in either shape.
func TestExSCostIndependentOfBlock(t *testing.T) {
	forEachHalfBody(t, func(t *testing.T) {
		ctx := context.Background()
		fed := testFederation(t, 60)
		for _, dim := range []int{48, 64, 72, 100} {
			emb := EmbedFederation(fed, newTestEncoder(dim))
			s := NewExS(emb, ExSOptions{})
			qs := batchQueries(emb, 17)
			ks := make([]int, len(qs))
			costs := make([]*obs.Cost, len(qs))
			for i := range qs {
				ks[i] = 1 + i%9
				costs[i] = new(obs.Cost)
			}
			if _, err := s.SearchEncodedBatch(ctx, qs, ks, costs); err != nil {
				t.Fatal(err)
			}
			for i, q := range qs {
				one := new(obs.Cost)
				if _, err := s.SearchEncoded(obs.ContextWithCost(ctx, one), q, ks[i]); err != nil {
					t.Fatal(err)
				}
				got, want := costs[i].Report(), one.Report()
				if got.ValuesScanned != want.ValuesScanned || got.DistanceComps != want.DistanceComps || got.ValuesScanned <= int64(emb.NumRelations()) {
					t.Fatalf("dim %d, query %d, k %d: batched %d values / %d distances, alone %d / %d (%d centroid rows)",
						dim, i, ks[i], got.ValuesScanned, got.DistanceComps, want.ValuesScanned, want.DistanceComps, emb.NumRelations())
				}
			}
		}
	})
}

// namedSearcher labels a searcher for test messages: two ANNS
// configurations share one Name.
type namedSearcher struct {
	name string
	s    EncodedSearcher
}

// batchSearchers builds every method over emb, ANNS both raw and
// PQ-compressed: only the compressed walk fills an ADC table.
func batchSearchers(t *testing.T, emb *Embedded) []namedSearcher {
	t.Helper()
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true})
	if err != nil {
		t.Fatalf("anns: %v", err)
	}
	annsPQ, err := NewANNS(emb, ANNSOptions{Seed: 1, PQTrainSize: 64, PQK: 16})
	if err != nil {
		t.Fatalf("anns+pq: %v", err)
	}
	if annsPQ.coll.Quantizer() == nil {
		t.Fatal("anns+pq: the quantizer never trained")
	}
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA})
	if err != nil {
		t.Fatalf("cts: %v", err)
	}
	return []namedSearcher{{"ExS", NewExS(emb, ExSOptions{})}, {"ANNS", anns}, {"ANNS+PQ", annsPQ}, {"CTS", cts}}
}

// mixedKs returns n result bounds cycling through small, large and
// skipped (k ≤ 0) values.
func mixedKs(n int) []int {
	cycle := []int{5, 0, 3, -1, 8, 5, 1, 20, 4, 0, 7, 2}
	ks := make([]int, n)
	for i := range ks {
		ks[i] = cycle[i%len(cycle)]
	}
	return ks
}

// sequentialRows answers each query with k > 0 through SearchEncoded,
// charging costs[i] when costs is non-nil.
func sequentialRows(t *testing.T, name string, s EncodedSearcher, qs [][]float32, ks []int, costs []*obs.Cost) [][]Match {
	t.Helper()
	seq := make([][]Match, len(qs))
	for i := range qs {
		if ks[i] <= 0 {
			continue
		}
		ctx := context.Background()
		if costs != nil {
			ctx = obs.ContextWithCost(ctx, costs[i])
		}
		m, err := s.SearchEncoded(ctx, qs[i], ks[i])
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		seq[i] = m
	}
	return seq
}

// newCosts returns n fresh accumulators.
func newCosts(n int) []*obs.Cost {
	costs := make([]*obs.Cost, n)
	for i := range costs {
		costs[i] = &obs.Cost{}
	}
	return costs
}

// TestBatchMatchesSequential checks every method's batch path against its
// sequential path, including skipped (k ≤ 0) items. 37 queries leave ANNS
// a short last block, and uneven shares at every worker count.
func TestBatchMatchesSequential(t *testing.T) {
	fed := testFederation(t, 50)
	emb := EmbedFederation(fed, newTestEncoder(64))
	qs := batchQueries(emb, 37)
	ks := mixedKs(len(qs))
	for _, ns := range batchSearchers(t, emb) {
		bs, ok := ns.s.(BatchSearcher)
		if !ok {
			t.Fatalf("%s does not implement BatchSearcher", ns.name)
		}
		seq := sequentialRows(t, ns.name, ns.s, qs, ks, nil)
		batch, err := bs.SearchEncodedBatch(context.Background(), qs, ks, nil)
		if err != nil {
			t.Fatalf("%s batch: %v", ns.name, err)
		}
		assertRowsIdentical(t, ns.name, seq, batch)
		for i, k := range ks {
			if k <= 0 && batch[i] != nil {
				t.Errorf("%s: skipped item %d got %d matches", ns.name, i, len(batch[i]))
			}
		}
	}
}

// TestBatchCosts checks every method's batch path charges each query's
// accumulator the same work — distance computations, HNSW hops, PQ
// lookups, bytes — its sequential call records, and that the work matches
// the plan each collection search ran. A beam that covers its collection
// scans it: it charges one scanned value and one PQ lookup (raw: one
// distance computation) per point the span's "scanned" annotation counts,
// and no hops. "ANNS walk" keeps a beam of 2 over a 104-point collection,
// above the ¾ × 2 × 2M = 48 points a scan takes, so it walks the graph and
// charges hops.
func TestBatchCosts(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))
	qs := batchQueries(emb, 13)
	ks := make([]int, len(qs))
	for i := range ks {
		ks[i] = 1 + i%6
	}
	annsWalk, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true, EfSearch: 2, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := annsWalk.coll.Stats().Points; n <= 48 {
		t.Fatalf("ANNS walk: %d points, want more than a beam of 2 scans", n)
	}
	for _, ns := range append(batchSearchers(t, emb), namedSearcher{"ANNS walk", annsWalk}) {
		costs := newCosts(len(qs))
		if _, err := ns.s.(BatchSearcher).SearchEncodedBatch(context.Background(), qs, ks, costs); err != nil {
			t.Fatalf("%s batch: %v", ns.name, err)
		}
		seqCosts := newCosts(len(qs))
		sequentialRows(t, ns.name, ns.s, qs, ks, seqCosts)
		for i := range qs {
			got, want := costs[i].Report(), seqCosts[i].Report()
			if got != want {
				t.Errorf("%s query %d cost: batch %+v vs sequential %+v", ns.name, i, got, want)
			}
			if ns.name == "ExS" {
				continue
			}
			scanned := scannedPoints(t, ns.s, qs[i], ks[i])
			if int(got.ValuesScanned) != scanned {
				t.Errorf("%s query %d: %d values scanned, the span counts %d", ns.name, i, got.ValuesScanned, scanned)
			}
			switch ns.name {
			case "ANNS walk":
				if scanned != 0 || got.HNSWHops == 0 || got.DistanceComps == 0 {
					t.Errorf("%s query %d: scanned %d, cost %+v; want a walk: hops and distances, no scan", ns.name, i, scanned, got)
				}
				continue
			case "ANNS":
				if int(got.DistanceComps) != scanned {
					t.Errorf("%s query %d: %d distance computations, %d points scanned", ns.name, i, got.DistanceComps, scanned)
				}
			case "ANNS+PQ":
				if int(got.PQLookups) != scanned || got.DistanceComps != 0 {
					t.Errorf("%s query %d: %d PQ lookups and %d distances, %d points scanned", ns.name, i, got.PQLookups, got.DistanceComps, scanned)
				}
			case "CTS":
				// One dot product per medoid, then the probes' scans.
				medoids := len(ns.s.(*CTS).medoidVecs)
				if int(got.DistanceComps) != medoids+scanned {
					t.Errorf("%s query %d: %d distance computations, want %d medoids + %d points scanned", ns.name, i, got.DistanceComps, medoids, scanned)
				}
			}
			if scanned == 0 || got.HNSWHops != 0 {
				t.Errorf("%s query %d: scanned %d, %d hops; want a scan and no hops", ns.name, i, scanned, got.HNSWHops)
			}
		}
	}
}

// scannedPoints runs one traced and costed query and sums its spans'
// "scanned" annotations: how many points its collection searches scored by
// a scan.
func scannedPoints(t *testing.T, s EncodedSearcher, q []float32, k int) int {
	t.Helper()
	tr := obs.NewTrace()
	if _, err := s.SearchEncoded(obs.ContextWithCost(obs.ContextWithTrace(context.Background(), tr), &obs.Cost{}), q, k); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, sp := range tr.Spans() {
		if v, ok := sp.Annotations["scanned"]; ok {
			c, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("span %s: scanned = %q", sp.Name, v)
			}
			n += c
		}
	}
	return n
}

// TestBatchCancelled verifies a dead context aborts the whole batch.
func TestBatchCancelled(t *testing.T) {
	fed := testFederation(t, 40)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	qs := batchQueries(emb, 4)
	ks := []int{5, 5, 5, 5}
	for _, ns := range batchSearchers(t, emb) {
		if _, err := ns.s.(BatchSearcher).SearchEncodedBatch(ctx, qs, ks, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", ns.name, err)
		}
	}
}

// TestBatchArgMismatch verifies the parallel-slice shape is validated.
func TestBatchArgMismatch(t *testing.T) {
	fed := testFederation(t, 10)
	emb := EmbedFederation(fed, newTestEncoder(32))
	s := NewExS(emb, ExSOptions{})
	qs := batchQueries(emb, 3)
	if _, err := s.SearchEncodedBatch(context.Background(), qs, []int{5, 5}, nil); err == nil {
		t.Fatal("want error for ks length mismatch")
	}
	if _, err := s.SearchEncodedBatch(context.Background(), qs, []int{5, 5, 5}, make([]*obs.Cost, 2)); err == nil {
		t.Fatal("want error for costs length mismatch")
	}
}

// TestConcurrentBatches runs overlapping batches on every method under the
// race detector: the batch paths share index state but no mutable scratch,
// so every concurrent answer equals the lone one bit for bit.
func TestConcurrentBatches(t *testing.T) {
	fed := testFederation(t, 50)
	emb := EmbedFederation(fed, newTestEncoder(64))
	ctx := context.Background()
	qs := batchQueries(emb, 11)
	ks := []int{3, 5, 2, 7, 4, 1, 6, 5, 0, 9, 3}

	const goroutines, reps = 4, 5
	for _, ns := range batchSearchers(t, emb) {
		bs := ns.s.(BatchSearcher)
		want, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
		if err != nil {
			t.Fatalf("%s: %v", ns.name, err)
		}
		got := make([][][]Match, goroutines*reps)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < reps; rep++ {
					rows, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
					if err != nil {
						t.Errorf("%s: %v", ns.name, err)
						return
					}
					got[g*reps+rep] = rows
				}
			}()
		}
		wg.Wait()
		for _, rows := range got {
			if rows != nil {
				assertRowsIdentical(t, ns.name, want, rows)
			}
		}
	}
}

// TestChurnedStoreBatchMatchesSequential pins the batch path of a store
// past its first write — two sealed segments, tombstones in both, a
// non-empty mutable segment — for every method: each batch row and each
// query's cost equal the sequential answer's, and ExS's rows are the
// oracle's over the surviving corpus embedded from scratch.
func TestChurnedStoreBatchMatchesSequential(t *testing.T) {
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	builders := storeBuilders()
	builders["ANNS+PQ"] = func(e *Embedded) (EncodedSearcher, error) {
		return NewANNS(e, ANNSOptions{Seed: 1, PQTrainSize: 24, PQK: 16})
	}
	var texts []string
	texts = append(texts, churnQueries...)
	texts = append(texts, churnTopics...)
	ks := mixedKs(len(texts))

	for _, name := range []string{"ExS", "ANNS", "ANNS+PQ", "CTS"} {
		build := builders[name]
		t.Run(name, func(t *testing.T) {
			st := newStore(t, name, build, churnFederation(16), model, SegmentStoreOptions{
				Policy: segment.Policy{MaxMutableValues: 1 << 20, MaxSegments: 100, MaxDeadFraction: -1},
			})
			rels := make(map[string]*table.Relation)
			add := func(i int, topic string) {
				t.Helper()
				id := fmt.Sprintf("rel-%02d", i)
				if err := st.Add(newRelation(id, topic)); err != nil {
					t.Fatal(err)
				}
				rels[id] = newRelation(id, topic)
			}
			for i := 0; i < 16; i++ {
				rels[fmt.Sprintf("rel-%02d", i)] = newRelation(fmt.Sprintf("rel-%02d", i), churnTopics[i])
			}
			for i := 16; i < 26; i++ {
				add(i, churnTopics[i%len(churnTopics)]+" second")
			}
			st.freeze()
			if err := st.upgradeFrozen(); err != nil {
				t.Fatal(err)
			}
			for _, id := range []string{"rel-03", "rel-08", "rel-17", "rel-22"} {
				if err := st.Delete(id); err != nil {
					t.Fatal(err)
				}
				delete(rels, id)
			}
			for i := 26; i < 30; i++ {
				add(i, churnTopics[i%len(churnTopics)]+" mutable")
			}
			if s := st.Stats(); s.SealedSegments < 2 || s.MutableRelations == 0 || s.DeadRelations == 0 {
				t.Fatalf("store not churned as intended: %+v", s)
			}
			if name == "ANNS+PQ" {
				for i, sg := range st.view().segs {
					if sg.searcher.(*ANNS).coll.Quantizer() == nil {
						t.Fatalf("segment %d: the quantizer never trained", i)
					}
				}
			}

			qs := make([][]float32, len(texts))
			for i, text := range texts {
				qs[i] = model.Encode(text)
			}
			seqCosts := newCosts(len(qs))
			seq := sequentialRows(t, name, st, qs, ks, seqCosts)
			costs := newCosts(len(qs))
			batch, err := st.SearchEncodedBatch(context.Background(), qs, ks, costs)
			if err != nil {
				t.Fatal(err)
			}
			assertRowsIdentical(t, name, seq, batch)
			for i := range qs {
				if got, want := costs[i].Report(), seqCosts[i].Report(); got != want {
					t.Errorf("query %d cost: batch %+v vs sequential %+v", i, got, want)
				}
			}
			if name == "ExS" {
				fresh := freshEmbedded(rels, st.LiveRelations(), model)
				want := make([][]Match, len(qs))
				for i, q := range qs {
					if ks[i] > 0 {
						want[i] = oracleRank(fresh, q, ks[i], 0)
					}
				}
				assertRowsIdentical(t, name+" vs oracle", want, batch)
			}
		})
	}
}

// TestSearchBatchAllocsIndependentOfFanout pins that a retrieved text costs
// no allocation of its own: an ANNS query that walks in 320 text hits
// allocates within a small constant of one that walks in 32. While every hit
// carried a cloned payload map, the gap was about two allocations per extra
// hit, over 500 here. Each relation adds a row of texts of its own to
// testFederation's shared ones, so the index holds more than 320 points.
func TestSearchBatchAllocsIndependentOfFanout(t *testing.T) {
	fed := testFederation(t, 200)
	for _, r := range fed.Relations() {
		r.Rows = append(r.Rows, []string{r.ID + " alpha", r.ID + " beta"})
	}
	emb := EmbedFederation(fed, newTestEncoder(64))
	if emb.NumTexts() < 320 {
		t.Fatalf("%d distinct texts, fewer than the fanout", emb.NumTexts())
	}
	q := emb.Enc.Encode("abc def")
	ctx := context.Background()
	allocs := func(fanout int) float64 {
		s, err := NewANNS(emb, ANNSOptions{Seed: 1, DisablePQ: true, Fanout: fanout})
		if err != nil {
			t.Fatal(err)
		}
		hits, _ := s.coll.SearchBatch(ctx, vectordb.Prepare([][]float32{q}), []int{fanout}, []int{fanout}, nil, nil)
		if len(hits[0]) != fanout {
			t.Fatalf("fanout %d: the walk returns %d hits", fanout, len(hits[0]))
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.SearchEncoded(ctx, q, 10); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(32), allocs(320)
	if large-small > 32 {
		t.Fatalf("a query allocates %.1f times at fanout 32 and %.1f at fanout 320", small, large)
	}
}

// tripContext is a context that reports itself cancelled from its
// (after+1)-th Err call on: a cancellation that lands deterministically
// while a batch's cluster probes are walking. Done is non-nil, so the walks
// poll Err between hops.
type tripContext struct {
	context.Context
	after int64
	calls atomic.Int64
	done  chan struct{}
}

func (c *tripContext) Done() <-chan struct{} { return c.done }

func (c *tripContext) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCTSBatchSharedClusters runs a CTS batch in which many queries share a
// few clusters — 48 queries over 12 texts, each descending into 2 of 4
// clusters — so the workers' probes charge one query's accumulator
// concurrently. Its relations hold 12 values each, so a relation's hits
// come from both of a query's clusters and folding them out of itinerary
// order changes score bits. Rows and per-query costs must equal the
// sequential calls', and a context cancelled while the probes walk must
// fail the whole batch with the context's error.
func TestCTSBatchSharedClusters(t *testing.T) {
	fed := table.NewFederation()
	for i := 0; i < 40; i++ {
		r := &table.Relation{ID: relID(i), Source: "src", Columns: []string{"a", "b"}}
		for j := 0; j < 6; j++ {
			r.Rows = append(r.Rows, []string{word(i, 2*j), word(i+j, 2*j+1)})
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	emb := EmbedFederation(fed, newTestEncoder(64))
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, Reduction: ReducePCA, TopClusters: 2, MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cts.NumClusters() < 4 {
		t.Fatalf("%d clusters: too few for queries to share some and skip others", cts.NumClusters())
	}
	texts := batchQueries(emb, 12)
	qs := make([][]float32, 48)
	ks := make([]int, len(qs))
	for i := range qs {
		qs[i] = texts[i%len(texts)]
		ks[i] = 1 + i%7
	}
	seqCosts := newCosts(len(qs))
	seq := sequentialRows(t, "CTS", cts, qs, ks, seqCosts)
	costs := newCosts(len(qs))
	batch, err := cts.SearchEncodedBatch(context.Background(), qs, ks, costs)
	if err != nil {
		t.Fatal(err)
	}
	assertRowsIdentical(t, "CTS", seq, batch)
	for i := range qs {
		if got, want := costs[i].Report(), seqCosts[i].Report(); got != want {
			t.Errorf("query %d cost: batch %+v vs sequential %+v", i, got, want)
		}
	}

	for _, after := range []int64{1, 8, 64} {
		ctx := &tripContext{Context: context.Background(), after: after, done: make(chan struct{})}
		rows, err := cts.SearchEncodedBatch(ctx, qs, ks, nil)
		if !errors.Is(err, context.Canceled) || rows != nil {
			t.Errorf("cancelled after %d polls: %d rows, err %v; want context.Canceled", after, len(rows), err)
		}
	}
}
