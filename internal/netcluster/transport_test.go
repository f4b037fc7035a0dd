package netcluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8081":                      "127.0.0.1:8081",
		"http://127.0.0.1:8081":               "127.0.0.1:8081",
		"http://127.0.0.1:8081/path?x=1":      "127.0.0.1:8081",
		"https://shard-3.internal:9000/#frag": "shard-3.internal:9000",
	}
	for in, want := range cases {
		if got := hostOf(in); got != want {
			t.Errorf("hostOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// transportFixture is one shard server over a fault-injecting transport.
func transportFixture(t *testing.T) (*Client, *FaultInjector, *fakeBackend, string) {
	t.Helper()
	backend := &fakeBackend{matches: rankedMatches(0, 8)}
	h := NewShardHandler(backend, nil, nil, 0)
	srv := serveStreams(t, h, h)
	inj := NewFaultInjector(nil)
	return NewClient(srv.URL, inj), inj, backend, srv.URL
}

func TestFaultStatusShortCircuits(t *testing.T) {
	cl, inj, backend, url := transportFixture(t)
	inj.Set(url, Fault{Status: 503, Remaining: -1})
	_, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if re.Status != 503 || re.Code != CodeUnavailable {
		t.Fatalf("RemoteError = %+v, want status 503 code %q", re, CodeUnavailable)
	}
	if !re.Retryable() {
		t.Error("injected 503 should be retryable")
	}
	if got := backend.calls.Load(); got != 0 {
		t.Errorf("status fault reached the server %d times, want 0", got)
	}
	inj.Clear(url)
	if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("after Clear the server saw %d calls, want 1", got)
	}
}

func TestFaultStatus4xxNotRetryable(t *testing.T) {
	cl, inj, _, url := transportFixture(t)
	inj.Set(url, Fault{Status: 400, Remaining: -1})
	_, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if re.Retryable() {
		t.Error("a 400 must not be retryable: every replica would answer the same")
	}
}

func TestFaultRemainingCountsDown(t *testing.T) {
	cl, inj, _, url := transportFixture(t)
	inj.Set(url, Fault{Drop: true, Remaining: 2})
	for i := 0; i < 2; i++ {
		if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err == nil {
			t.Fatalf("request %d: want injected connection failure", i)
		}
	}
	if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatalf("after the rule expired: %v", err)
	}
	if got := inj.Injected()["drop"]; got != 2 {
		t.Errorf("Injected()[drop] = %d, want 2", got)
	}
}

func TestFaultTruncateYieldsMalformed(t *testing.T) {
	cl, inj, backend, url := transportFixture(t)
	inj.Set(url, Fault{Truncate: true, Remaining: 1})
	_, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
	var me *MalformedError
	if !errors.As(err, &me) {
		t.Fatalf("want *MalformedError, got %v", err)
	}
	// Truncate corrupts the response, not the request: the server ran it.
	if got := backend.calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1", got)
	}
}

func TestFaultLatencyDelays(t *testing.T) {
	cl, inj, _, url := transportFixture(t)
	const delay = 30 * time.Millisecond
	inj.Set(url, Fault{Latency: delay, Remaining: 1})
	start := time.Now()
	if _, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3); err != nil {
		t.Fatalf("delayed search: %v", err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("request took %v, want at least %v", elapsed, delay)
	}
	if got := inj.Injected()["latency"]; got != 1 {
		t.Errorf("Injected()[latency] = %d, want 1", got)
	}
}

func TestFaultHangHonorsContext(t *testing.T) {
	cl, inj, _, url := transportFixture(t)
	inj.Set(url, Fault{Hang: true, Remaining: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, _, err := cl.SearchEncoded(ctx, testVec, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded from a hung replica, got %v", err)
	}
}

// bloatTransport answers the stream upgrade to one host with a stream
// whose answer is a well-formed response frame padded past
// maxResponseBytes — a replica streaming without end, as far as a reader
// bounded by bytes can tell.
type bloatTransport struct{ host string }

type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// bloatStream swallows what is written and reads from its Reader.
type bloatStream struct{ io.Reader }

func (bloatStream) Write(p []byte) (int, error) { return len(p), nil }
func (bloatStream) Close() error                { return nil }

func (b bloatTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host != b.host {
		return http.DefaultTransport.RoundTrip(req)
	}
	frame := appendResponse(nil, reply{ms: make([][]core.Match, 1), costs: make([]obs.CostReport, 1)})
	head := appendAnswer(nil, http.StatusOK, frame)
	binary.LittleEndian.PutUint32(head, uint32(len(head)-4+maxResponseBytes))
	body := io.MultiReader(bytes.NewReader(head), io.LimitReader(spaces{}, maxResponseBytes))
	return &http.Response{StatusCode: http.StatusSwitchingProtocols,
		Header: http.Header{"Upgrade": []string{StreamProtocol}, "Connection": []string{"Upgrade"}},
		Body:   bloatStream{body}, Request: req}, nil
}

// TestClientOversizedResponseIsMalformed: a 2xx answer past the cap is a
// broken replica — *MalformedError, which a Group fails over on
// (TestGroupMalformedResponseFailsOver) — never an unbounded read.
func TestClientOversizedResponseIsMalformed(t *testing.T) {
	cl, _, _, url := transportFixture(t)
	cl = NewClient(url, bloatTransport{host: hostOf(url)})
	_, _, _, err := cl.SearchEncoded(context.Background(), testVec, 3)
	var me *MalformedError
	if !errors.As(err, &me) {
		t.Fatalf("oversized body: want *MalformedError, got %v", err)
	}
}
