package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"semdisco/internal/httpapi"
)

// maxConns bounds the harness's keep-alive connections to the front
// server: one for the latency phases, two for throughput and open loop, one
// reader plus one writer in the mixed phase.
const maxConns = 2

// client is the harness's own HTTP client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body into buf, which a
// caller reuses across requests. It returns the HTTP status.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, fmt.Errorf("bench: reading %s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

// ok runs one request and reports whether it returned the wanted status.
func (c *client) ok(method, path string, body []byte, want int, buf *bytes.Buffer) bool {
	status, err := c.do(method, path, body, buf)
	return err == nil && status == want
}

// postJSON posts a prepared body, requires a 200 and decodes the answer.
func (c *client) postJSON(path string, body []byte, out interface{}) error {
	var buf bytes.Buffer
	status, err := c.do(http.MethodPost, path, body, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("bench: %s answered %d: %s", path, status, buf.Bytes())
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return fmt.Errorf("bench: decoding %s answer: %w", path, err)
	}
	return nil
}

// search posts a prepared /v1/search body and decodes the answer.
func (c *client) search(body []byte) (*httpapi.SearchResponse, error) {
	var resp httpapi.SearchResponse
	if err := c.postJSON("/v1/search", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// searchBatch posts a prepared /v1/search/batch body and decodes the answer.
func (c *client) searchBatch(body []byte) (*httpapi.BatchSearchResponse, error) {
	var resp httpapi.BatchSearchResponse
	if err := c.postJSON("/v1/search/batch", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
