package experiments

import (
	"context"
	"fmt"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// batchBenchSize is the block size of the -batch section: 64 queries, the
// shape the acceptance criterion is stated in and large enough that the
// blocked kernels amortize every value-vector load across a full register
// block of queries.
const batchBenchSize = 64

// batchBenchMinTime is how long each timed side (sequential, batched) runs:
// repetitions accumulate until the clock passes this floor, so QPS numbers
// come from many batch executions rather than one noisy measurement.
const batchBenchMinTime = 200 * time.Millisecond

// BatchMethodJSON is one method's batched-execution measurement: the
// sequential per-query loop and the fused batch path timed over the same
// 64-query block, as throughput (QPS) with the batch/sequential speedup.
type BatchMethodJSON struct {
	Method  string `json:"method"`
	Queries int    `json:"queries"`
	// SequentialQPS is the per-query SearchEncoded loop's throughput.
	SequentialQPS float64 `json:"sequential_qps"`
	// BatchQPS is the fused SearchEncodedBatch path's throughput.
	BatchQPS float64 `json:"batch_qps"`
	// Speedup is BatchQPS / SequentialQPS — the headline number.
	Speedup float64 `json:"speedup"`
	// Identical reports every batch row matched its sequential counterpart
	// exactly (same relations, bit-identical scores).
	Identical bool `json:"identical"`
}

// BatchReportJSON is the -batch section of the benchmark report.
type BatchReportJSON struct {
	BatchSize int               `json:"batch_size"`
	Methods   []BatchMethodJSON `json:"methods"`
}

// BatchReport measures batched execution on the LD partition: a 64-query
// block (benchmark queries, cycled) runs through each core method's
// sequential SearchEncoded loop and its fused SearchEncodedBatch path,
// encoding outside both timed regions so the comparison isolates the scan.
// ExS rows must be — and are checked — bit-identical between the two paths;
// ANNS and CTS are checked the same way (their batch paths spread walks
// over the cores and share cluster probes, never changing any walk).
func (b *Bench) BatchReport(k int) (*BatchReportJSON, error) {
	if k <= 0 {
		k = 20
	}
	sb := b.PerSize["LD"]
	if len(b.Corpus.Queries) == 0 {
		return nil, fmt.Errorf("experiments: corpus has no queries")
	}
	qs := make([][]float32, batchBenchSize)
	ks := make([]int, batchBenchSize)
	for i := range qs {
		q := b.Corpus.Queries[i%len(b.Corpus.Queries)]
		qs[i] = sb.Model.Encode(q.Text)
		ks[i] = k
	}
	ctx := context.Background()

	r := &BatchReportJSON{BatchSize: batchBenchSize}
	for _, method := range []string{"ExS", "ANNS", "CTS"} {
		s, ok := sb.Searchers[method]
		if !ok {
			continue
		}
		es, ok := s.(core.EncodedSearcher)
		if !ok {
			return nil, fmt.Errorf("experiments: %s does not support encoded search", method)
		}
		bs, ok := s.(core.BatchSearcher)
		if !ok {
			return nil, fmt.Errorf("experiments: %s does not support batched search", method)
		}

		// Correctness first (untimed): every batch row must equal the
		// sequential answer.
		seq := make([][]core.Match, batchBenchSize)
		for i := range qs {
			m, err := es.SearchEncoded(ctx, qs[i], ks[i])
			if err != nil {
				return nil, err
			}
			seq[i] = m
		}
		costs := make([]*obs.Cost, batchBenchSize)
		for i := range costs {
			costs[i] = &obs.Cost{}
		}
		batch, err := bs.SearchEncodedBatch(ctx, qs, ks, costs)
		if err != nil {
			return nil, err
		}
		identical := matchRowsEqual(seq, batch)

		seqDur, reps, err := timeBatch(func() error {
			for i := range qs {
				if _, err := es.SearchEncoded(ctx, qs[i], ks[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		seqQPS := float64(reps*batchBenchSize) / seqDur.Seconds()

		batchDur, reps, err := timeBatch(func() error {
			_, err := bs.SearchEncodedBatch(ctx, qs, ks, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		batchQPS := float64(reps*batchBenchSize) / batchDur.Seconds()

		mr := BatchMethodJSON{
			Method:        method,
			Queries:       batchBenchSize,
			SequentialQPS: seqQPS,
			BatchQPS:      batchQPS,
			Identical:     identical,
		}
		if seqQPS > 0 {
			mr.Speedup = batchQPS / seqQPS
		}
		r.Methods = append(r.Methods, mr)
	}
	return r, nil
}

// timeBatch runs fn repeatedly — one warm-up, then timed repetitions until
// batchBenchMinTime accumulates — and reports the timed total and count.
func timeBatch(fn func() error) (time.Duration, int, error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	var total time.Duration
	reps := 0
	for total < batchBenchMinTime {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		total += time.Since(start)
		reps++
	}
	return total, reps, nil
}

// matchRowsEqual reports whether two result sets agree row by row, match by
// match, with bit-identical scores.
func matchRowsEqual(a, b [][]core.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
