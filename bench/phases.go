package main

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// counts tallies one phase's operations.
type counts struct{ sent, ok int }

func (c counts) failed() int { return c.sent - c.ok }

func (c *counts) add(o counts) { c.sent += o.sent; c.ok += o.ok }

// cursor hands out pool indexes in order, wrapping at the end, so a round
// of at most len(pool) ops never repeats a query.
type cursor struct{ next, n int }

func (c *cursor) take(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = c.next
		c.next = (c.next + 1) % c.n
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs ops 0..n-1 over conns workers, each sending its next op
// only after the previous one completed. It returns every op's latency in
// ms, how many succeeded, and the wall time of the whole round.
func closedLoop(conns, n int, op func(i int, buf *bytes.Buffer) bool) ([]float64, int, time.Duration) {
	lat := make([]float64, n)
	var next, okCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				if op(i, &buf) {
					okCount.Add(1)
				}
				lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return lat, int(okCount.Load()), time.Since(start)
}

// searchOp is the closed-loop op that posts the pool queries at idx.
func searchOp(c *client, in *inputs, idx []int) func(int, *bytes.Buffer) bool {
	return func(i int, buf *bytes.Buffer) bool {
		return c.ok(http.MethodPost, "/v1/search", in.searchBody[idx[i]], http.StatusOK, buf)
	}
}

// searchRound runs one closed-loop round of ops searches over conns
// connections. It returns every latency and the round's throughput in ops/s.
func searchRound(c *client, in *inputs, cur *cursor, conns, ops int) ([]float64, float64, counts) {
	lat, ok, elapsed := closedLoop(conns, ops, searchOp(c, in, cur.take(ops)))
	return lat, float64(ops) / elapsed.Seconds(), counts{sent: ops, ok: ok}
}

// batchRound runs one round of blocks /v1/search/batch requests of
// batchBlock queries each on one connection. It returns queries (not
// blocks) per second.
func batchRound(c *client, in *inputs, cur *cursor, blocks int) (float64, counts) {
	bodies := make([][]byte, blocks)
	for b := range bodies {
		idx := cur.take(batchBlock)
		qs := make([]string, len(idx))
		for i, j := range idx {
			qs[i] = in.pool[j]
		}
		bodies[b] = batchBody(qs)
	}
	_, ok, elapsed := closedLoop(1, blocks, func(i int, buf *bytes.Buffer) bool {
		return c.ok(http.MethodPost, "/v1/search/batch", bodies[i], http.StatusOK, buf)
	})
	return float64(blocks*batchBlock) / elapsed.Seconds(), counts{sent: blocks, ok: ok}
}

// clock is the time source of the open-loop scheduler, injectable so a test
// can stall it.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule returns n due offsets at a fixed rate per second.
func schedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// pace walks a schedule: it sleeps until each op is due, then emits it with
// how late the generator itself ran. No op is skipped: after a stall every
// overdue op is emitted at once, each carrying its own lateness.
func pace(clk clock, start time.Time, due []time.Duration, emit func(i int, late time.Duration)) {
	for i, d := range due {
		if wait := start.Add(d).Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		emit(i, clk.Now().Sub(start.Add(d)))
	}
}

// openSample is one open-loop op's outcome.
type openSample struct {
	// latMS runs from the op's due time, not from when it was sent, so the
	// wait a stall imposes on later ops is counted.
	latMS  float64
	lateMS float64
	ok     bool
}

// openLoop offers one op per schedule slot over conns connections,
// regardless of how fast earlier ones complete.
func openLoop(clk clock, conns int, due []time.Duration, op func(i int, buf *bytes.Buffer) bool) []openSample {
	samples := make([]openSample, len(due))
	ch := make(chan int, len(due)) // every op fits, so the pacer never blocks on slow workers
	var wg sync.WaitGroup
	start := clk.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range ch {
				samples[i].ok = op(i, &buf)
				samples[i].latMS = ms(clk.Now().Sub(start.Add(due[i])))
			}
		}()
	}
	pace(clk, start, due, func(i int, late time.Duration) {
		samples[i].lateMS = ms(late)
		ch <- i
	})
	close(ch)
	wg.Wait()
	return samples
}

// byRound splits open-loop samples into nRounds equal consecutive rounds by
// schedule position and returns each round's latencies.
func byRound(samples []openSample, nRounds int) [][]float64 {
	out := make([][]float64, nRounds)
	per := (len(samples) + nRounds - 1) / nRounds
	for i, s := range samples {
		out[i/per] = append(out[i/per], s.latMS)
	}
	return out
}

// latencies extracts the from-due latencies of open-loop samples.
func latencies(samples []openSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.latMS
	}
	return out
}

// sloRatio is the share of ops due that were answered correctly within
// sloMS of their due time. A failed or refused op misses.
func sloRatio(samples []openSample, sloMS float64) float64 {
	within := 0
	for _, s := range samples {
		if s.ok && s.latMS <= sloMS {
			within++
		}
	}
	return float64(within) / float64(len(samples))
}

// openCounts tallies open-loop samples.
func openCounts(samples []openSample) counts {
	c := counts{sent: len(samples)}
	for _, s := range samples {
		if s.ok {
			c.ok++
		}
	}
	return c
}

// mixedResult is the mixed phase's raw outcome.
type mixedResult struct {
	read, write   [][]float64 // per-round latencies in ms
	reads, writes counts
}

// mixedPhase plays the write list open-loop on one connection while a
// second connection searches closed-loop until the last write completes.
// Reader samples are assigned to the round in which they were sent.
func mixedPhase(c *client, in *inputs, cur *cursor, p plan) mixedResult {
	due := schedule(len(in.writes), writeRate)
	roundDur := time.Duration(float64(p.WritesPerRound) / writeRate * float64(time.Second))
	res := mixedResult{read: make([][]float64, p.Rounds)}

	done := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	start := time.Now()
	go func() {
		defer reader.Done()
		var buf bytes.Buffer
		for {
			select {
			case <-done:
				return
			default:
			}
			i := cur.take(1)[0]
			t0 := time.Now()
			ok := c.ok(http.MethodPost, "/v1/search", in.searchBody[i], http.StatusOK, &buf)
			r := int(t0.Sub(start) / roundDur)
			if r >= p.Rounds {
				r = p.Rounds - 1
			}
			res.read[r] = append(res.read[r], ms(time.Since(t0)))
			res.reads.sent++
			if ok {
				res.reads.ok++
			}
		}
	}()
	samples := openLoop(realClock{}, 1, due, func(i int, buf *bytes.Buffer) bool {
		w := in.writes[i]
		return c.ok(w.Method, w.Path, w.Body, w.Want, buf)
	})
	close(done)
	reader.Wait()
	res.write = byRound(samples, p.Rounds)
	res.writes = openCounts(samples)
	return res
}
