package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"semdisco"
)

// The search routes' JSON, read and written in one pass. Each body is read
// once into a pooled buffer. A decoder takes the shape clients send — an
// object of the route's own lower-case keys, plain strings and integer k —
// straight off the bytes. Anything else (escapes, other or duplicate keys,
// null, fractions, malformed input) goes to encoding/json over the same
// bytes, so what a request decodes to, and every 400/413 body, is what
// json.NewDecoder(r.Body).Decode gives: the first object wins and what
// follows it is not read. Responses are appended into a pooled buffer byte
// for byte as json.NewEncoder(w).Encode writes them.

// codecBuf is one request's pooled input and output bytes.
type codecBuf struct {
	in, out []byte
}

var codecPool = sync.Pool{New: func() any { return new(codecBuf) }}

// maxPooledBuf is the largest buffer the pool keeps: a request that read a
// big body gives its buffer back to the garbage collector.
const maxPooledBuf = 64 << 10

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func (b *codecBuf) release() {
	if cap(b.in) > maxPooledBuf || cap(b.out) > maxPooledBuf {
		return
	}
	b.in, b.out = b.in[:0], b.out[:0]
	codecPool.Put(b)
}

// readBody appends r's bytes to buf up to limit. Past limit, or on a read
// error, it stops and returns the error a json.Decoder reading through
// http.MaxBytesReader would meet at that point: *http.MaxBytesError past
// limit, the body's own error otherwise, nil at the end of the body.
func readBody(buf []byte, r io.Reader, limit int64) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := int64(cap(buf) - len(buf))
		if left := limit + 1 - int64(len(buf)); room > left {
			room = left
		}
		n, err := r.Read(buf[len(buf) : len(buf)+int(room)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return buf[:limit], &http.MaxBytesError{Limit: limit}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// jsonDecode is the general decoder the fast paths fall back to: it reads
// body and then fails with tail, as json.NewDecoder over the original
// reader would.
func jsonDecode(body []byte, tail error, v any) error {
	var r io.Reader = bytes.NewReader(body)
	if tail != nil {
		r = io.MultiReader(r, errReader{tail})
	}
	return json.NewDecoder(r).Decode(v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readSearchRequest reads and decodes a /v1/search body of at most limit
// bytes: the request json.NewDecoder(http.MaxBytesReader(w, body,
// limit)).Decode would give, and the same error.
func readSearchRequest(body io.Reader, limit int64) (SearchRequest, error) {
	buf := getCodecBuf()
	defer buf.release()
	var tail error
	buf.in, tail = readBody(buf.in[:0], body, limit)
	var req SearchRequest
	if p := (scanner{b: buf.in}); p.searchRequest(&req) {
		return req, nil
	}
	var slow SearchRequest // apart from req, so only this path allocates it
	err := jsonDecode(buf.in, tail, &slow)
	return slow, err
}

// readBatchRequest is readSearchRequest for /v1/search/batch.
func readBatchRequest(body io.Reader, limit int64) (BatchSearchRequest, error) {
	buf := getCodecBuf()
	defer buf.release()
	var tail error
	buf.in, tail = readBody(buf.in[:0], body, limit)
	var req BatchSearchRequest
	if p := (scanner{b: buf.in}); p.batchRequest(&req) {
		return req, nil
	}
	var slow BatchSearchRequest
	err := jsonDecode(buf.in, tail, &slow)
	return slow, err
}

// scanner reads the fast path's subset of JSON. Every method reports
// false as soon as the input leaves that subset; the caller then discards
// what it decoded and falls back.
type scanner struct {
	b []byte
	i int
}

func (p *scanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (p *scanner) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string without escapes, control characters or invalid
// UTF-8, and returns its raw bytes.
func (p *scanner) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// int reads an integer literal: no fraction or exponent, and at most 18
// digits, so it fits an int.
func (p *scanner) int() (int, bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	digits := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	n := p.i - digits
	if n == 0 || n > 18 || (n > 1 && p.b[digits] == '0') || p.i == len(p.b) {
		return 0, false
	}
	if c := p.b[p.i]; c == '.' || c == 'e' || c == 'E' {
		return 0, false
	}
	v := 0
	for _, c := range p.b[digits:p.i] {
		v = v*10 + int(c-'0')
	}
	if digits > start {
		v = -v
	}
	return v, true
}

// object reads an object whose keys member accepts, calling member for
// each with the scanner before the value. Duplicate keys leave the subset
// (member tracks them).
func (p *scanner) object(member func(key []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.str()
		if !ok || !p.eat(':') || !member(key) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// array reads an array, calling elem for each element.
func (p *scanner) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// query reads the {"query", "k"} members a search and a batch item share.
func (p *scanner) query(key []byte, seen *uint8, query *string, k *int) bool {
	var bit uint8
	var ok bool
	switch string(key) {
	case "query":
		bit = 1
		var s []byte
		if s, ok = p.str(); ok {
			*query = string(s)
		}
	case "k":
		bit = 2
		*k, ok = p.int()
	}
	if !ok || *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (p *scanner) searchRequest(req *SearchRequest) bool {
	var seen uint8
	return p.object(func(key []byte) bool {
		if string(key) != "sources" {
			return p.query(key, &seen, &req.Query, &req.K)
		}
		if seen&4 != 0 {
			return false
		}
		seen |= 4
		req.Sources = []string{}
		return p.array(func() bool {
			s, ok := p.str()
			req.Sources = append(req.Sources, string(s))
			return ok
		})
	})
}

func (p *scanner) batchRequest(req *BatchSearchRequest) bool {
	seen := false
	return p.object(func(key []byte) bool {
		if string(key) != "queries" || seen {
			return false
		}
		seen = true
		req.Queries = []BatchQueryJSON{}
		return p.array(func() bool {
			var q BatchQueryJSON
			var seen uint8
			ok := p.object(func(key []byte) bool { return p.query(key, &seen, &q.Query, &q.K) })
			req.Queries = append(req.Queries, q)
			return ok
		})
	})
}

// writeSearchResponse writes resp as appendSearchResponse encodes it into
// a pooled buffer, or through writeJSON when it holds a score that encoder
// does not take (NaN or infinite, which encoding/json refuses as well).
func writeSearchResponse(w http.ResponseWriter, resp *SearchResponse) {
	buf := getCodecBuf()
	defer buf.release()
	var ok bool
	if buf.out, ok = appendSearchResponse(buf.out[:0], resp); !ok {
		slow := *resp // a copy, so resp itself need not live on the heap
		writeJSON(w, http.StatusOK, slow)
		return
	}
	writeEncoded(w, buf.out)
}

// writeBatchResponse is writeSearchResponse for a batch.
func writeBatchResponse(w http.ResponseWriter, resp *BatchSearchResponse) {
	buf := getCodecBuf()
	defer buf.release()
	var ok bool
	if buf.out, ok = appendBatchResponse(buf.out[:0], resp); !ok {
		slow := *resp
		writeJSON(w, http.StatusOK, slow)
		return
	}
	writeEncoded(w, buf.out)
}

// writeEncoded writes a 200 with an encoded JSON body, the headers
// writeJSON sets.
func writeEncoded(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// appendSearchResponse appends resp as json.Encoder writes it, newline
// included. ok is false when a score is NaN or infinite.
func appendSearchResponse(b []byte, resp *SearchResponse) (_ []byte, ok bool) {
	b = append(b, `{"matches":`...)
	if b, ok = appendMatches(b, resp.Matches); !ok {
		return b, false
	}
	if resp.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendString(b, resp.TraceID)
	}
	if resp.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = appendShardErrors(b, resp.ShardErrors)
	if resp.Cost != nil {
		b = append(b, `,"cost":`...)
		b = appendCost(b, resp.Cost)
	}
	return append(b, "}\n"...), true
}

// appendBatchResponse is appendSearchResponse for a batch.
func appendBatchResponse(b []byte, resp *BatchSearchResponse) (_ []byte, ok bool) {
	if resp.Results == nil {
		return append(b, "{\"results\":null}\n"...), true
	}
	b = append(b, `{"results":[`...)
	for i := range resp.Results {
		item := &resp.Results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"matches":`...)
		if b, ok = appendMatches(b, item.Matches); !ok {
			return b, false
		}
		if item.Cost != nil {
			b = append(b, `,"cost":`...)
			b = appendCost(b, item.Cost)
		}
		if item.Degraded {
			b = append(b, `,"degraded":true`...)
		}
		b = appendShardErrors(b, item.ShardErrors)
		b = append(b, '}')
	}
	return append(b, "]}\n"...), true
}

func appendMatches(b []byte, ms []MatchJSON) ([]byte, bool) {
	if ms == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"relation_id":`...)
		b = appendString(b, m.RelationID)
		b = append(b, `,"score":`...)
		var ok bool
		if b, ok = appendFloat32(b, m.Score); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, ']'), true
}

func appendShardErrors(b []byte, errs []string) []byte {
	if len(errs) == 0 {
		return b
	}
	b = append(b, `,"shard_errors":[`...)
	for i, e := range errs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e)
	}
	return append(b, ']')
}

// appendCost appends a CostReport: distance_comps always, the other
// counters when non-zero (their omitempty tags).
func appendCost(b []byte, c *semdisco.CostReport) []byte {
	b = append(b, `{"distance_comps":`...)
	b = strconv.AppendInt(b, c.DistanceComps, 10)
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{`,"hnsw_hops":`, c.HNSWHops},
		{`,"pq_lookups":`, c.PQLookups},
		{`,"values_scanned":`, c.ValuesScanned},
		{`,"bytes_scanned":`, c.BytesScanned},
		{`,"candidates_generated":`, c.CandidatesGenerated},
		{`,"candidates_pruned":`, c.CandidatesPruned},
		{`,"cache_hits":`, c.CacheHits},
	} {
		if f.v != 0 {
			b = append(b, f.key...)
			b = strconv.AppendInt(b, f.v, 10)
		}
	}
	return append(b, '}')
}

// appendFloat32 formats f as encoding/json does a float32: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped. ok is false for NaN and ±Inf.
func appendFloat32(b []byte, f float32) ([]byte, bool) {
	f64 := float64(f)
	if math.IsNaN(f64) || math.IsInf(f64, 0) {
		return b, false
	}
	format := byte('f')
	if abs := float32(math.Abs(f64)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f64, format, -1, 32)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes appendString copies as they are: all but
// control characters, ", \, <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return safe
}()

// appendString appends s as a JSON string the way encoding/json's
// HTML-escaping encoder does: ", \ and control characters escaped (\b, \f,
// \n, \r, \t by name), <, > and & as \u003c, \u003e and \u0026, each
// invalid UTF-8 byte as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decodeError maps a decode error to its status: 413 past the body limit,
// 400 otherwise.
func decodeError(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
