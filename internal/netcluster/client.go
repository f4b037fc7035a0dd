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
// returning garbage (truncated body, non-JSON proxy page). It is treated
// as retryable: the replica is broken, not the request.
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

// call issues one request and decodes the JSON answer into out (which may
// be nil to discard the body), propagating the context's W3C trace
// context as a traceparent header and classifying every failure mode:
// transport errors attribute to the context's error when it caused them,
// non-2xx becomes *RemoteError carrying the unified error body's code,
// and an undecodable or oversized 2xx body becomes *MalformedError.
func (c *Client) call(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("netcluster: encoding request: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("netcluster: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sc, ok := obs.SpanContextFrom(ctx); ok && sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Attribute the failure to the deadline/cancellation that caused
			// it, so errors.Is(err, context.DeadlineExceeded) holds upstream.
			return fmt.Errorf("netcluster: %s %s: %w", method, c.base+path, ctx.Err())
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		re := &RemoteError{URL: c.base + path, Status: resp.StatusCode}
		var eb ErrorBody
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); err == nil {
			re.Code, re.Msg = eb.Code, eb.Error
		} else {
			re.Msg = "undecodable error body"
		}
		return re
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) // drain for keep-alive reuse
		return nil
	}
	if err := json.NewDecoder(http.MaxBytesReader(nil, resp.Body, maxResponseBytes)).Decode(out); err != nil {
		return &MalformedError{URL: c.base + path, Err: err}
	}
	return nil
}

// SearchEncoded runs one pre-encoded query on the shard.
func (c *Client) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, obs.CostReport, []obs.SpanRecord, error) {
	var resp EncodedSearchResponse
	if err := c.call(ctx, http.MethodPost, PathEncodedSearch, EncodedSearchRequest{Vector: q, K: k}, &resp); err != nil {
		return nil, obs.CostReport{}, nil, err
	}
	return fromWire(resp.Matches), resp.Cost, resp.Spans, nil
}

// SearchEncodedBatch runs a blocked multi-query request on the shard.
func (c *Client) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int) ([][]core.Match, []obs.CostReport, []obs.SpanRecord, error) {
	var resp EncodedBatchResponse
	if err := c.call(ctx, http.MethodPost, PathEncodedSearchBatch, EncodedBatchRequest{Vectors: qs, Ks: ks}, &resp); err != nil {
		return nil, nil, nil, err
	}
	if len(resp.Results) != len(qs) || len(resp.Costs) != len(qs) {
		return nil, nil, nil, &MalformedError{URL: c.base + PathEncodedSearchBatch,
			Err: fmt.Errorf("sent %d queries, got %d results / %d costs", len(qs), len(resp.Results), len(resp.Costs))}
	}
	out := make([][]core.Match, len(resp.Results))
	for i := range resp.Results {
		out[i] = fromWire(resp.Results[i])
	}
	return out, resp.Costs, resp.Spans, nil
}

// AddRelation ingests one relation on the shard via the public API.
func (c *Client) AddRelation(ctx context.Context, rel Relation) error {
	return c.call(ctx, http.MethodPost, "/v1/relations", rel, nil)
}

// DeleteRelation tombstones one relation on the shard.
func (c *Client) DeleteRelation(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/v1/relations/"+url.PathEscape(id), nil, nil)
}

// UpdateRelation replaces one relation's contents on the shard.
func (c *Client) UpdateRelation(ctx context.Context, rel Relation) error {
	return c.call(ctx, http.MethodPut, "/v1/relations/"+url.PathEscape(rel.ID), rel, nil)
}

// Healthz reports whether the shard answers its liveness probe.
func (c *Client) Healthz(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil)
}
