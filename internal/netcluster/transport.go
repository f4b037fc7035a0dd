package netcluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Fault is one injected failure mode applied to requests toward a target
// host. Zero-valued fields are inert; multiple set fields compose in the
// order latency → hang → drop → status → truncate (a Fault with Latency
// and Status first delays, then answers 5xx). Faults are how the tests
// (TestFault*, TestGroup*, TestCoordinator*, TestNetCluster* in the root
// package) and `make netcluster-smoke` exercise the coordinator's failure
// paths without real packet loss: a straggler is Latency, a crashed
// replica is Drop, an overloaded one is Status 503, a wedged one is Hang,
// and a corrupted response is Truncate.
//
// A plain request (a write, a probe) meets one rule per request. A search
// stream meets one rule per exchange, applied when its request envelope is
// written; dialing the stream consumes none. On a stream, Latency delays
// the envelope, Hang blocks until the stream is closed (the client closes
// it when the exchange's context ends), Drop fails the exchange and closes
// the stream, Status answers a synthesized error envelope and forwards
// nothing, and Truncate forwards the envelope, then delivers the first
// half of the answer followed by EOF.
type Fault struct {
	// Latency is added before the request is forwarded.
	Latency time.Duration
	// Hang blocks until the request's context is done (on a stream: until
	// the stream is closed), then reports its error — a replica that
	// accepted the connection and went silent.
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

// RoundTrip implements http.RoundTripper. An upgrade to a search stream
// is forwarded as it is, and the stream it opens carries the host's rules
// exchange by exchange.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.EqualFold(req.Header.Get("Upgrade"), StreamProtocol) {
		resp, err := f.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		if rwc, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
			resp.Body = &faultStream{f: f, host: req.URL.Host, rwc: rwc, closed: make(chan struct{})}
		}
		return resp, nil
	}
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

// faultStream is a search stream under a FaultInjector's rules for its
// host. Its Write is an exchange's start; Close may come from another
// goroutine (the client's context ending), everything else from the
// exchange's.
type faultStream struct {
	f    *FaultInjector
	host string
	rwc  io.ReadWriteCloser

	once   sync.Once
	closed chan struct{}
	// answer, when non-nil, is delivered instead of reading the shard: a
	// synthesized error envelope, or half of the shard's answer followed
	// by EOF (eof).
	answer   []byte
	eof      bool
	truncate bool // cut the next answer in half
}

func (s *faultStream) Write(p []byte) (int, error) {
	fault, ok := s.f.take(s.host)
	if !ok {
		return s.rwc.Write(p)
	}
	if fault.Latency > 0 {
		s.f.note("latency")
		t := time.NewTimer(fault.Latency)
		select {
		case <-t.C:
		case <-s.closed:
			t.Stop()
			return 0, net.ErrClosed
		}
	}
	if fault.Hang {
		s.f.note("hang")
		<-s.closed
		return 0, net.ErrClosed
	}
	if fault.Drop {
		s.f.note("drop")
		s.Close()
		return 0, fmt.Errorf("netcluster: injected connection failure to %s", s.host)
	}
	if fault.Status != 0 {
		s.f.note("status")
		s.answer = appendErrorAnswer(nil, fault.Status, CodeUnavailable, fmt.Sprintf("injected %d from %s", fault.Status, s.host))
		return len(p), nil
	}
	s.truncate = fault.Truncate
	return s.rwc.Write(p)
}

func (s *faultStream) Read(p []byte) (int, error) {
	if s.truncate {
		s.truncate = false
		s.f.note("truncate")
		ans, _, _, err := readAnswer(s.rwc, nil)
		if err != nil {
			return 0, err
		}
		s.answer, s.eof = ans[:len(ans)/2], true
	}
	if len(s.answer) > 0 {
		n := copy(p, s.answer)
		s.answer = s.answer[n:]
		return n, nil
	}
	if s.eof {
		return 0, io.EOF
	}
	return s.rwc.Read(p)
}

func (s *faultStream) Close() error {
	err := net.ErrClosed
	s.once.Do(func() {
		close(s.closed)
		err = s.rwc.Close()
	})
	return err
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
