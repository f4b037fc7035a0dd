package netcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"syscall"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// RemoteError is a shard's non-2xx answer, classified by the unified
// error body's machine code. The replica-failover logic keys off Status
// and Code rather than message text.
type RemoteError struct {
	URL    string
	Status int
	Code   string
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netcluster: %s answered %d (%s): %s", e.URL, e.Status, e.Code, e.Msg)
}

// Retryable reports whether another replica might answer where this one
// failed: 5xx and 429 are availability, 4xx is the request's own fault
// and will fail identically everywhere.
func (e *RemoteError) Retryable() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests
}

// MalformedError is a response the client could not decode — a shard
// returning garbage (a truncated frame, trailing bytes, a proxy's HTML
// page). It is treated as retryable: the replica is broken, not the
// request.
type MalformedError struct {
	URL string
	Err error
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("netcluster: malformed response from %s: %v", e.URL, e.Err)
}

func (e *MalformedError) Unwrap() error { return e.Err }

// Client speaks the wire protocol to one shard server: searches as frames
// on pooled search streams, writes and probes as JSON over plain HTTP. It
// is safe for concurrent use.
type Client struct {
	base string // "http://127.0.0.1:8081", no trailing slash
	hc   *http.Client

	mu   sync.Mutex
	idle []*stream // LIFO: the most recently used stream is reused first
}

// maxIdleStreams caps the idle streams a Client keeps to one shard; a
// stream finishing an exchange while the pool is full is closed.
const maxIdleStreams = 8

// stream is one search stream: the upgraded connection and the buffer its
// request and answer envelopes are built and read in.
type stream struct {
	rwc io.ReadWriteCloser
	buf []byte
}

// NewClient builds a client for a shard base URL over a transport (nil
// means http.DefaultTransport; the coordinator passes its fault-injectable
// transport). Search streams are dialed through it too, as upgrade
// requests. Deadlines come from the per-call context, not the client.
func NewClient(base string, rt http.RoundTripper) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		hc:   &http.Client{Transport: rt},
	}
}

// URL reports the shard's base URL.
func (c *Client) URL() string { return c.base }

// maxResponseBytes caps a shard's 2xx body, the limit httpapi puts on
// request bodies: a replica streaming garbage must not exhaust the
// coordinator's memory.
const maxResponseBytes = 16 << 20

// do issues one request with an optional JSON body, propagating the
// context's W3C trace context as a traceparent header and classifying
// every failure mode: transport errors attribute to the context's error
// when it caused them, and non-2xx becomes *RemoteError carrying the
// unified error body's code. On success the caller owns the response body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("netcluster: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc, ok := obs.SpanContextFrom(ctx); ok && sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, ctxError(ctx, method+" "+c.base+path, err)
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, remoteError(c.base+path, resp.StatusCode, b)
	}
	return resp, nil
}

// ctxError attributes a failed exchange to the deadline or cancellation
// that caused it, so errors.Is(err, context.DeadlineExceeded) holds
// upstream.
func ctxError(ctx context.Context, what string, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("netcluster: %s: %w", what, ctx.Err())
	}
	return err
}

// remoteError classifies a non-2xx answer by its unified error body.
func remoteError(url string, status int, body []byte) *RemoteError {
	re := &RemoteError{URL: url, Status: status}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil {
		re.Code, re.Msg = eb.Code, eb.Error
	} else {
		re.Msg = "undecodable error body"
	}
	return re
}

// call issues one JSON request of the write path or a probe (in may be
// nil) and discards the answer's body.
func (c *Client) call(ctx context.Context, method, path string, in interface{}) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("netcluster: encoding request: %w", err)
		}
	}
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) // drain for keep-alive reuse
	return nil
}

// dial opens a search stream: an upgrade request through the client's
// transport, whose 101 answer carries the connection as its body.
func (c *Client) dial(ctx context.Context) (*stream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathSearchStream, nil)
	if err != nil {
		return nil, fmt.Errorf("netcluster: building request: %w", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", StreamProtocol)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, ctxError(ctx, "dialing "+c.base+PathSearchStream, err)
	}
	if rwc, ok := resp.Body.(io.ReadWriteCloser); ok && resp.StatusCode == http.StatusSwitchingProtocols {
		return &stream{rwc: rwc}, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode/100 != 2 {
		return nil, remoteError(c.base+PathSearchStream, resp.StatusCode, b)
	}
	return nil, &MalformedError{URL: c.base + PathSearchStream, Err: fmt.Errorf("answered %d, not a stream", resp.StatusCode)}
}

// take pops the most recently pooled stream, or dials one when the pool
// is empty; reused reports which.
func (c *Client) take(ctx context.Context) (s *stream, reused bool, err error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		s = c.idle[n-1]
		c.idle = c.idle[:n-1]
	}
	c.mu.Unlock()
	if s != nil {
		return s, true, nil
	}
	s, err = c.dial(ctx)
	return s, false, err
}

// put pools a stream whose exchange finished cleanly, or closes it when
// the pool is full.
func (c *Client) put(s *stream) {
	if cap(s.buf) > 1<<20 {
		s.buf = nil // a rare huge answer does not stay with the pool
	}
	c.mu.Lock()
	if len(c.idle) < maxIdleStreams {
		c.idle = append(c.idle, s)
		s = nil
	}
	c.mu.Unlock()
	if s != nil {
		s.rwc.Close()
	}
}

// search sends a block of queries as one request envelope on a pooled
// stream and decodes the answer: the one body of SearchEncoded and
// SearchEncodedBatch. A 2xx answer over maxResponseBytes, damaged, or
// answering another number of queries is *MalformedError. A pooled stream
// the shard closed while it idled is dropped and the search goes on with
// the next one, or a fresh one once the pool is empty.
func (c *Client) search(ctx context.Context, qs [][]float32, ks []int) (reply, error) {
	for {
		s, reused, err := c.take(ctx)
		if err != nil {
			return reply{}, err
		}
		rep, err := c.exchange(ctx, s, qs, ks)
		if reused && errors.Is(err, errNoAnswer) && peerClosed(err) && ctx.Err() == nil {
			continue
		}
		return rep, err
	}
}

// peerClosed reports a connection the other end had closed or reset.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// exchange runs one request/answer exchange on s and pools s when it
// finished cleanly; a stream whose exchange failed, or whose ctx ended
// during it, is closed and never pooled. A ctx that ends mid-exchange
// closes the stream, which unblocks its write or read.
func (c *Client) exchange(ctx context.Context, s *stream, qs [][]float32, ks []int) (reply, error) {
	sc, _ := obs.SpanContextFrom(ctx)
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = max(time.Until(dl), 1)
	}
	buf, err := appendEnvelope(s.buf[:0], sc, budget, qs, ks)
	if err != nil {
		c.put(s)
		return reply{}, err
	}
	live := func() bool { return true }
	if ctx.Done() != nil {
		live = context.AfterFunc(ctx, func() { s.rwc.Close() })
	}
	var (
		rep    reply
		status int
		body   []byte
	)
	if _, err = s.rwc.Write(buf); err != nil {
		err = fmt.Errorf("%w: %w", errNoAnswer, err)
	} else if buf, status, body, err = readAnswer(s.rwc, buf); err == nil {
		rep, err = c.decodeAnswer(status, body, len(qs))
	} else if !errors.Is(err, errNoAnswer) {
		err = &MalformedError{URL: c.base + PathSearchStream, Err: err}
	}
	s.buf = buf
	if !live() || err != nil {
		s.rwc.Close()
		switch {
		case ctx.Err() != nil:
			return reply{}, ctxError(ctx, "searching "+c.base, ctx.Err())
		case errors.Is(err, errNoAnswer):
			return reply{}, fmt.Errorf("netcluster: searching %s: %w", c.base, err)
		}
		return reply{}, err
	}
	c.put(s)
	return rep, nil
}

// decodeAnswer turns an answer envelope's status and body into the reply
// to nq queries: *RemoteError for a non-2xx, *MalformedError for a 2xx
// body that is damaged or answers another number of queries.
func (c *Client) decodeAnswer(status int, body []byte, nq int) (reply, error) {
	switch {
	case status < 200 || status > 599:
		return reply{}, &MalformedError{URL: c.base + PathSearchStream, Err: fmt.Errorf("status %d", status)}
	case status/100 != 2:
		return reply{}, remoteError(c.base+PathSearchStream, status, body)
	}
	rep, err := decodeResponse(body)
	if err == nil && len(rep.ms) != nq {
		err = fmt.Errorf("sent %d queries, got %d answers", nq, len(rep.ms))
	}
	if err != nil {
		return reply{}, &MalformedError{URL: c.base + PathSearchStream, Err: err}
	}
	return rep, nil
}

// SearchEncoded runs one pre-encoded query on the shard.
func (c *Client) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, obs.CostReport, []obs.SpanRecord, error) {
	rep, err := c.search(ctx, [][]float32{q}, []int{k})
	if err != nil {
		return nil, obs.CostReport{}, nil, err
	}
	return rep.ms[0], rep.costs[0], rep.spans, nil
}

// SearchEncodedBatch runs a blocked multi-query request on the shard.
func (c *Client) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int) ([][]core.Match, []obs.CostReport, []obs.SpanRecord, error) {
	rep, err := c.search(ctx, qs, ks)
	if err != nil {
		return nil, nil, nil, err
	}
	return rep.ms, rep.costs, rep.spans, nil
}

// AddRelation ingests one relation on the shard via the public API.
func (c *Client) AddRelation(ctx context.Context, rel Relation) error {
	return c.call(ctx, http.MethodPost, "/v1/relations", rel)
}

// DeleteRelation tombstones one relation on the shard.
func (c *Client) DeleteRelation(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/relations/"+url.PathEscape(id), nil)
}

// UpdateRelation replaces one relation's contents on the shard.
func (c *Client) UpdateRelation(ctx context.Context, rel Relation) error {
	return c.call(ctx, http.MethodPut, "/v1/relations/"+url.PathEscape(rel.ID), rel)
}

// Healthz reports whether the shard answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil)
}
