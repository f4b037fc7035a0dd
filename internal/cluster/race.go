package cluster

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"semdisco/internal/obs"
)

// windowSize bounds the latency history behind a hedge trigger. A sliding
// window rather than a lifetime histogram: hedging should react to what
// the target is doing now, and an index that warmed its caches an hour ago
// should not hedge off cold-start latencies.
const windowSize = 128

// Window is a fixed-size ring of the durations of recent winning attempts
// against one target (a shard, a replica set). Only successes are recorded
// — a timed-out attempt reports the deadline, not the target's speed, and
// recording it would inflate the p95 until hedging disables itself. The
// zero value is ready to use.
type Window struct {
	mu    sync.Mutex
	buf   [windowSize]time.Duration
	next  int
	count int
}

func (w *Window) record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % windowSize
	if w.count < windowSize {
		w.count++
	}
	w.mu.Unlock()
}

// sorted returns a sorted copy of the live samples. The window is small,
// so the sort is noise next to a search.
func (w *Window) sorted() []time.Duration {
	w.mu.Lock()
	tmp := append([]time.Duration(nil), w.buf[:w.count]...)
	w.mu.Unlock()
	slices.Sort(tmp)
	return tmp
}

// Quantile returns the q-quantile over the window, 0 when empty, through
// the shared obs.SampleQuantile estimator — so the p95 that arms a hedge
// is the same number /v1/stats reports.
func (w *Window) Quantile(q float64) time.Duration { return obs.SampleQuantile(w.sorted(), q) }

// RacePolicy is the attempt policy of one Race: how many targets it may
// try, what bounds an attempt, when a straggler is hedged and whether a
// failure moves on to the next target. netcluster.Group configures it for
// the replicas of a set (DESIGN.md §9).
type RacePolicy struct {
	// Targets is how many attempts the race may launch, numbered from 0;
	// do maps the number to a target.
	Targets int
	// AttemptTimeout bounds each attempt on its own; 0 leaves attempts
	// bounded by ctx alone.
	AttemptTimeout time.Duration
	// Hedge races the next untried target against an attempt still running
	// at the window's p95, floored at HedgeFloor so a fast target is not
	// hedged on every query; it arms once the window holds HedgeWarmup
	// samples.
	Hedge       bool
	HedgeFloor  time.Duration
	HedgeWarmup int
	// BackoffBase > 0 enables sequential failover: a failed attempt is
	// followed by the next untried target after base·2ⁿ (capped at
	// BackoffMax) plus up to 50% jitter, so a fleet retrying a flapping
	// target does not beat on it in lockstep. 0 means a failure is only
	// ever answered by an already-racing twin.
	BackoffBase, BackoffMax time.Duration
	// Final reports an error every target would repeat (a bad request);
	// it ends the race at once. Nil means no error is final.
	Final func(error) bool
}

func (p RacePolicy) backoff(n int) time.Duration {
	d := p.BackoffBase << uint(n)
	if d > p.BackoffMax || d <= 0 {
		d = p.BackoffMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// RaceOutcome reports what a Race did, so each caller keeps its own
// counters and span annotations.
type RaceOutcome struct {
	// Attempts is how many attempts launched; Retries how many of them
	// were sequential failovers.
	Attempts, Retries int
	// Hedged reports a hedge launched, HedgeWon that its answer was the
	// one returned.
	Hedged, HedgeWon bool
}

// Race runs do against up to p.Targets targets until one attempt succeeds:
// the first attempt, a hedge when it straggles, and — under a failover
// policy — the next target after each failure. It returns the first
// success, recording the winner's duration in w. When nothing is left to
// try it returns the last failure together with the value that attempt
// returned (so a caller can account the work a failing attempt did); a
// Final error or ctx dying during a back-off returns at once.
//
// Until a hedge is armed nothing can overlap, so every attempt runs on the
// caller's goroutine. Once armed, attempts run on their own goroutines and
// the losers of a race are left to finish on their own — do must honour
// its context.
func Race[T any](ctx context.Context, p RacePolicy, w *Window, do func(ctx context.Context, attempt int, hedge bool) (T, error)) (T, RaceOutcome, error) {
	type result struct {
		v     T
		err   error
		hedge bool
		dur   time.Duration
	}
	var (
		out      RaceOutcome
		done     int
		ch       = make(chan result, p.Targets) // one slot per attempt: the inline path and the losers never block
		hedgeC   <-chan time.Time
		backoffT *time.Timer
		backoffC <-chan time.Time
		idle     <-chan struct{} // ctx.Done() while backing off, when no attempt is there to notice it
	)
	defer func() {
		if backoffT != nil {
			backoffT.Stop()
		}
	}()
	// A hedge is armed when enabled, with a second target to go to and
	// enough latency history for the p95 to mean something.
	if p.Hedge && p.Targets > 1 {
		if lat := w.sorted(); len(lat) >= p.HedgeWarmup {
			t := time.NewTimer(max(obs.SampleQuantile(lat, 0.95), p.HedgeFloor))
			defer t.Stop()
			hedgeC = t.C
		}
	}
	async := hedgeC != nil
	launch := func(hedge bool) {
		n := out.Attempts
		out.Attempts++
		run := func() {
			actx := ctx
			if p.AttemptTimeout > 0 {
				var cancel context.CancelFunc
				actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
				defer cancel()
			}
			start := time.Now()
			v, err := do(actx, n, hedge)
			ch <- result{v, err, hedge, time.Since(start)}
		}
		if async {
			go run()
		} else {
			run()
		}
	}

	launch(false)
	for {
		select {
		case r := <-ch:
			done++
			if r.err == nil {
				w.record(r.dur)
				out.HedgeWon = r.hedge
				return r.v, out, nil
			}
			switch {
			case p.Final != nil && p.Final(r.err):
				return r.v, out, r.err
			case p.BackoffBase > 0 && out.Attempts < p.Targets:
				if backoffC == nil {
					backoffT = time.NewTimer(p.backoff(out.Retries))
					backoffC, idle = backoffT.C, ctx.Done()
					out.Retries++
				}
			case done == out.Attempts:
				return r.v, out, r.err
			}
		case <-hedgeC:
			hedgeC = nil
			if out.Attempts < p.Targets {
				out.Hedged = true
				launch(true)
			}
		case <-backoffC:
			backoffC, idle = nil, nil
			if out.Attempts < p.Targets { // a hedge may have taken the last target meanwhile
				launch(false)
			}
		case <-idle:
			var zero T
			return zero, out, ctx.Err()
		}
	}
}
