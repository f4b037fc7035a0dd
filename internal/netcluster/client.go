package netcluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

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

// Client speaks the wire protocol to one shard server. It is cheap (one
// *http.Client) and safe for concurrent use.
type Client struct {
	base string // "http://127.0.0.1:8081", no trailing slash
	hc   *http.Client
}

// NewClient builds a client for a shard base URL over a transport (nil
// means http.DefaultTransport; the coordinator passes its fault-injectable
// transport). Deadlines come from the per-call context, not the client.
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

// do issues one request with an optional body of the given content type,
// propagating the context's W3C trace context as a traceparent header and
// classifying every failure mode: transport errors attribute to the
// context's error when it caused them, and non-2xx becomes *RemoteError
// carrying the unified error body's code. On success the caller owns the
// response body.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("netcluster: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if sc, ok := obs.SpanContextFrom(ctx); ok && sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Attribute the failure to the deadline/cancellation that caused
			// it, so errors.Is(err, context.DeadlineExceeded) holds upstream.
			return nil, fmt.Errorf("netcluster: %s %s: %w", method, c.base+path, ctx.Err())
		}
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		re := &RemoteError{URL: c.base + path, Status: resp.StatusCode}
		var eb ErrorBody
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil {
			re.Code, re.Msg = eb.Code, eb.Error
		} else {
			re.Msg = "undecodable error body"
		}
		return nil, re
	}
	return resp, nil
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
	resp, err := c.do(ctx, method, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) // drain for keep-alive reuse
	return nil
}

// search posts a block of queries as one request frame to an
// encoded-search route and decodes the response frame: the one body of
// SearchEncoded and SearchEncodedBatch. A 2xx body over maxResponseBytes,
// damaged, or answering another number of queries is *MalformedError.
func (c *Client) search(ctx context.Context, path string, qs [][]float32, ks []int) (reply, error) {
	frame, err := appendRequest(nil, qs, ks)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, path, FrameContentType, frame)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	// MinRead spare bytes let the read that finds EOF run without growing.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), maxResponseBytes)+bytes.MinRead))
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBytes+1))
	var rep reply
	switch {
	case err != nil:
	case buf.Len() > maxResponseBytes:
		err = fmt.Errorf("body exceeds %d bytes", maxResponseBytes)
	default:
		if rep, err = decodeResponse(buf.Bytes()); err == nil && len(rep.ms) != len(qs) {
			err = fmt.Errorf("sent %d queries, got %d answers", len(qs), len(rep.ms))
		}
	}
	if err != nil {
		return reply{}, &MalformedError{URL: c.base + path, Err: err}
	}
	return rep, nil
}

// SearchEncoded runs one pre-encoded query on the shard.
func (c *Client) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, obs.CostReport, []obs.SpanRecord, error) {
	rep, err := c.search(ctx, PathEncodedSearch, [][]float32{q}, []int{k})
	if err != nil {
		return nil, obs.CostReport{}, nil, err
	}
	return rep.ms[0], rep.costs[0], rep.spans, nil
}

// SearchEncodedBatch runs a blocked multi-query request on the shard.
func (c *Client) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int) ([][]core.Match, []obs.CostReport, []obs.SpanRecord, error) {
	rep, err := c.search(ctx, PathEncodedSearchBatch, qs, ks)
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
