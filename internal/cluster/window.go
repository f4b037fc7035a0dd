package cluster

import (
	"slices"
	"sync"
	"time"

	"semdisco/internal/obs"
)

// windowSize bounds the latency history behind a Window. A sliding window
// rather than a lifetime histogram: the p50/p95 in Stats should describe
// what the target is doing now, not its cold start an hour ago.
const windowSize = 128

// Window is a fixed-size ring of the durations of recent successful
// attempts against one target (a shard, a replica set). Only successes are
// recorded — a timed-out attempt reports the deadline, not the target's
// speed. The zero value is ready to use.
type Window struct {
	mu    sync.Mutex
	buf   [windowSize]time.Duration
	next  int
	count int
}

// Record adds one successful attempt's duration, evicting the oldest once
// the window is full.
func (w *Window) Record(d time.Duration) {
	w.mu.Lock()
	w.buf[w.next] = d
	w.next = (w.next + 1) % windowSize
	if w.count < windowSize {
		w.count++
	}
	w.mu.Unlock()
}

// Quantile returns the q-quantile over the window, 0 when empty, through
// the shared obs.SampleQuantile estimator.
func (w *Window) Quantile(q float64) time.Duration {
	w.mu.Lock()
	tmp := append([]time.Duration(nil), w.buf[:w.count]...)
	w.mu.Unlock()
	slices.Sort(tmp)
	return obs.SampleQuantile(tmp, q)
}
