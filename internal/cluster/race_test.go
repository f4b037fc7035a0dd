package cluster

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// goid identifies the calling goroutine, so a row can pin which attempts
// ran on the caller's.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestRace drives the one replica-failover state machine through every
// transition against a scripted do. Router and Group are configurations of
// it; their own suites check the wiring, this table checks the machine.
func TestRace(t *testing.T) {
	var (
		errA     = errors.New("a")
		errB     = errors.New("b")
		errC     = errors.New("c")
		errFinal = errors.New("bad request")
	)
	// step scripts attempt n: wait (honouring the attempt's context), then
	// fail with err or answer n.
	type step struct {
		wait time.Duration
		err  error
	}
	const slow = 400 * time.Millisecond // far past every hedge delay and back-off used below
	hedged := RacePolicy{Targets: 2, Hedge: true, HedgeFloor: time.Millisecond, HedgeWarmup: 16}
	failover := RacePolicy{Targets: 3, BackoffBase: 4 * time.Millisecond, BackoffMax: 6 * time.Millisecond}

	cases := []struct {
		name        string
		policy      RacePolicy
		warm        int // samples in the window before the race
		script      []step
		cancelAfter time.Duration
		want        int
		wantErr     error
		out         RaceOutcome
		samples     int // samples the race itself added
		inline      bool
		atLeast     time.Duration
		atMost      time.Duration
	}{
		{name: "no hedge: exactly one inline attempt",
			policy: RacePolicy{Targets: 2, HedgeWarmup: 16}, warm: 16, script: []step{{}},
			want: 0, out: RaceOutcome{Attempts: 1}, samples: 1, inline: true},
		{name: "un-armed below 16 samples",
			policy: hedged, warm: 15, script: []step{{wait: 20 * time.Millisecond}},
			want: 0, out: RaceOutcome{Attempts: 1}, samples: 1, inline: true},
		{name: "hedge fires and wins",
			policy: hedged, warm: 16, script: []step{{wait: slow}, {}},
			want: 1, out: RaceOutcome{Attempts: 2, Hedged: true, HedgeWon: true}, samples: 1, atMost: slow / 2},
		{name: "hedge fires, first finisher fails, twin's success is returned",
			policy: hedged, warm: 16, script: []step{{wait: 40 * time.Millisecond}, {err: errB}},
			want: 0, out: RaceOutcome{Attempts: 2, Hedged: true}, samples: 1, atLeast: 40 * time.Millisecond},
		{name: "hedged twins both fail: last error",
			policy: hedged, warm: 16, script: []step{{wait: 40 * time.Millisecond, err: errA}, {err: errB}},
			wantErr: errA, out: RaceOutcome{Attempts: 2, Hedged: true}},
		{name: "attempt finishing before the hedge delay is not hedged",
			policy: hedged, warm: 16, script: []step{{err: errA}},
			wantErr: errA, out: RaceOutcome{Attempts: 1}},
		{name: "no failover: a failed attempt is not retried",
			policy: RacePolicy{Targets: 2}, script: []step{{err: errA}},
			wantErr: errA, out: RaceOutcome{Attempts: 1}, inline: true},
		{name: "failover visits every target once with back-off between",
			policy: failover, script: []step{{err: errA}, {err: errB}, {}},
			want: 2, out: RaceOutcome{Attempts: 3, Retries: 2}, samples: 1, inline: true, atLeast: 10 * time.Millisecond},
		{name: "all fail: last error, attempts == targets",
			policy: failover, script: []step{{err: errA}, {err: errB}, {err: errC}},
			wantErr: errC, out: RaceOutcome{Attempts: 3, Retries: 2}, inline: true},
		{name: "a final error stops failover",
			policy: RacePolicy{Targets: 3, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
				Final: func(err error) bool { return errors.Is(err, errFinal) }},
			script:  []step{{err: errFinal}},
			wantErr: errFinal, out: RaceOutcome{Attempts: 1}, inline: true},
		{name: "per-attempt timeout fails over",
			policy: RacePolicy{Targets: 2, AttemptTimeout: 10 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond},
			script: []step{{wait: slow}, {}},
			want:   1, out: RaceOutcome{Attempts: 2, Retries: 1}, samples: 1, inline: true, atMost: slow / 2},
		{name: "ctx cancelled mid-back-off returns ctx.Err()",
			policy: RacePolicy{Targets: 2, BackoffBase: slow, BackoffMax: slow}, script: []step{{err: errA}},
			cancelAfter: 10 * time.Millisecond,
			wantErr:     context.Canceled, out: RaceOutcome{Attempts: 1, Retries: 1}, inline: true, atMost: slow / 2},
		{name: "hedge and failover share the targets",
			policy: RacePolicy{Targets: 2, Hedge: true, HedgeFloor: 5 * time.Millisecond, HedgeWarmup: 16,
				BackoffBase: 20 * time.Millisecond, BackoffMax: 20 * time.Millisecond},
			warm: 16, script: []step{{err: errA}, {wait: 40 * time.Millisecond, err: errB}},
			// The primary fails at once, the hedge takes the last target while
			// the back-off runs, and the back-off then finds nothing to launch.
			wantErr: errB, out: RaceOutcome{Attempts: 2, Retries: 1, Hedged: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &Window{}
			for i := 0; i < tc.warm; i++ {
				w.record(time.Microsecond)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelAfter > 0 {
				time.AfterFunc(tc.cancelAfter, cancel)
			}
			var (
				mu       sync.Mutex
				seen     = make(map[int]int)
				offG     int
				finished sync.WaitGroup
			)
			caller := goid()
			finished.Add(len(tc.script))
			start := time.Now()
			got, out, err := Race(ctx, tc.policy, w, func(actx context.Context, n int, hedge bool) (int, error) {
				defer finished.Done()
				mu.Lock()
				seen[n]++
				if goid() != caller {
					offG++
				}
				mu.Unlock()
				if hedge != (tc.out.Hedged && n == 1) { // every hedging row hedges to target 1
					t.Errorf("attempt %d: hedge = %v", n, hedge)
				}
				select {
				case <-time.After(tc.script[n].wait):
				case <-actx.Done():
					return n, actx.Err()
				}
				return n, tc.script[n].err
			})
			elapsed := time.Since(start)
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && got != tc.want {
				t.Errorf("answer from attempt %d, want %d", got, tc.want)
			}
			if out != tc.out {
				t.Errorf("outcome = %+v, want %+v", out, tc.out)
			}
			if tc.atLeast > 0 && elapsed < tc.atLeast {
				t.Errorf("returned after %v, want at least %v", elapsed, tc.atLeast)
			}
			if tc.atMost > 0 && elapsed > tc.atMost {
				t.Errorf("returned after %v, want at most %v", elapsed, tc.atMost)
			}
			// Losers are left to finish on their own; wait for them before
			// reading what they recorded.
			finished.Wait()
			for n := range tc.script {
				if seen[n] != 1 {
					t.Errorf("attempt %d ran %d times, want once", n, seen[n])
				}
			}
			if tc.inline != (offG == 0) {
				t.Errorf("%d attempts ran off the caller's goroutine, inline = %v", offG, tc.inline)
			}
			if n := w.count - tc.warm; n != tc.samples {
				t.Errorf("race added %d samples to the window, want %d (winners only)", n, tc.samples)
			}
		})
	}
}
