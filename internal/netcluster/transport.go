package netcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fault is one injected failure mode applied to requests toward a target
// host. Zero-valued fields are inert; multiple set fields compose in the
// order latency → hang → drop → status → truncate (a Fault with Latency
// and Status first delays, then answers 5xx). Faults are how the tests and
// `semdisco-bench -netcluster` exercise the coordinator's failure paths
// without real packet loss: a straggler is Latency, a crashed replica is
// Drop, an overloaded one is Status 503, a wedged one is Hang, and a
// corrupted response is Truncate.
type Fault struct {
	// Latency is added before the request is forwarded.
	Latency time.Duration
	// Hang blocks until the request's context is done, then reports its
	// error — a replica that accepted the connection and went silent.
	Hang bool
	// Drop fails the round trip with a connection error, never reaching
	// the target.
	Drop bool
	// Status short-circuits with this status code (use 5xx) and a unified
	// error body, never reaching the target.
	Status int
	// Truncate forwards the request but cuts the response body to its
	// first half — a connection lost mid-answer — exercising the client's
	// decode guard.
	Truncate bool
	// Remaining bounds how many requests the fault applies to; negative
	// means every request until the rule is cleared.
	Remaining int
}

// FaultInjector is an http.RoundTripper that applies per-host fault rules
// before (or instead of) delegating to a base transport. It is the
// pluggable failure layer of the networked cluster: the coordinator's
// HTTP client is built over one, tests script outages through it, and the
// bench uses it to induce stragglers. Safe for concurrent use.
type FaultInjector struct {
	base http.RoundTripper

	mu    sync.Mutex
	rules map[string]*Fault
	// injected counts applied faults by kind, for bench reporting.
	injected map[string]int64
}

// NewFaultInjector wraps base (nil means http.DefaultTransport).
func NewFaultInjector(base http.RoundTripper) *FaultInjector {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultInjector{
		base:     base,
		rules:    make(map[string]*Fault),
		injected: make(map[string]int64),
	}
}

// Set installs a fault rule for a target host ("127.0.0.1:8081"; a full
// URL is accepted and reduced to its host). It replaces any prior rule.
func (f *FaultInjector) Set(target string, fault Fault) {
	f.mu.Lock()
	r := fault
	f.rules[hostOf(target)] = &r
	f.mu.Unlock()
}

// Clear removes the rule for a target, if any.
func (f *FaultInjector) Clear(target string) {
	f.mu.Lock()
	delete(f.rules, hostOf(target))
	f.mu.Unlock()
}

// Injected reports how many faults of each kind were applied.
func (f *FaultInjector) Injected() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.injected))
	for k, v := range f.injected {
		out[k] = v
	}
	return out
}

// take returns the active fault for a host, consuming one application of
// a count-limited rule.
func (f *FaultInjector) take(host string) (Fault, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.rules[host]
	if !ok || r.Remaining == 0 {
		return Fault{}, false
	}
	if r.Remaining > 0 {
		r.Remaining--
	}
	return *r, true
}

func (f *FaultInjector) note(kind string) {
	f.mu.Lock()
	f.injected[kind]++
	f.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	fault, ok := f.take(req.URL.Host)
	if !ok {
		return f.base.RoundTrip(req)
	}
	if fault.Latency > 0 {
		f.note("latency")
		sleep, cancel := context.WithTimeout(req.Context(), fault.Latency)
		<-sleep.Done()
		cancel()
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
	}
	if fault.Hang {
		f.note("hang")
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if fault.Drop {
		f.note("drop")
		return nil, fmt.Errorf("netcluster: injected connection failure to %s", req.URL.Host)
	}
	if fault.Status != 0 {
		f.note("status")
		body := fmt.Sprintf(`{"error":"injected %d from %s","code":%q}`, fault.Status, req.URL.Host, CodeUnavailable)
		return &http.Response{
			StatusCode: fault.Status,
			Status:     http.StatusText(fault.Status),
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(body)),
			Request:    req,
		}, nil
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if fault.Truncate {
		f.note("truncate")
		b, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes)) // a read error only truncates sooner
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(b[:len(b)/2]))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// hostOf reduces a target to its host part: a bare host passes through, a
// URL loses its scheme and path.
func hostOf(target string) string {
	s := target
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	return s
}
