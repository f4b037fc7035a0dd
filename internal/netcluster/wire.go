package netcluster

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// The internal coordinator↔shard search protocol lives under /internal/
// because it accepts pre-encoded vectors: the public API's contract
// (queries are strings, embeddings never leave the box they were computed
// on) does not hold for it, and a deployment fronting shards with a
// reverse proxy should not route it from outside.
const (
	// PathSearchStream is the route a coordinator upgrades to a search
	// stream: a GET carrying "Connection: Upgrade" and "Upgrade:
	// StreamProtocol", answered 101, after which the connection carries
	// request and answer envelopes (DESIGN.md §9) until either side closes
	// it.
	PathSearchStream = "/internal/v1/search/stream"
	// StreamProtocol is the Upgrade token of a search stream.
	StreamProtocol = "semdisco-frame"
)

// Error codes of the unified error body (ErrorBody / httpapi's
// ErrorResponse). The coordinator classifies remote failures on them
// rather than parsing message strings.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeNotImplemented   = "not_implemented"
	CodeTooManyRequests  = "too_many_requests"
	CodeInternal         = "internal"
	CodeUnavailable      = "unavailable"
)

// ErrorBody is the unified JSON error shape every non-2xx response
// carries: {"error": <human detail>, "code": <machine class>}. It mirrors
// httpapi.ErrorResponse — declared here too so the shard handler and the
// client need no httpapi import (which would be an import cycle).
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// WireMatch, EncodedSearchRequest and EncodedSearchResponse are the
// logical content of a one-query search exchange, for tools that measure
// or log it; the wire carries the binary frame below, not their JSON.
type WireMatch struct {
	RelationID string  `json:"relation_id"`
	Score      float32 `json:"score"`
}

// EncodedSearchRequest is a pre-encoded query vector and k.
type EncodedSearchRequest struct {
	Vector []float32 `json:"vector"`
	K      int       `json:"k"`
}

// EncodedSearchResponse is one shard's matches, cost report and span
// records.
type EncodedSearchResponse struct {
	Matches []WireMatch      `json:"matches"`
	Cost    obs.CostReport   `json:"cost"`
	Spans   []obs.SpanRecord `json:"spans,omitempty"`
}

// Relation is a relation on the write path (coordinator → every replica
// of the owning set). It mirrors httpapi.RelationJSON.
type Relation struct {
	ID           string     `json:"id"`
	Source       string     `json:"source"`
	PageTitle    string     `json:"page_title,omitempty"`
	SectionTitle string     `json:"section_title,omitempty"`
	Caption      string     `json:"caption,omitempty"`
	Columns      []string   `json:"columns"`
	Rows         [][]string `json:"rows"`
}

// The frame a search stream carries, in both directions (DESIGN.md §9).
// Fixed-width fields are little-endian, counts and lengths uvarints,
// costs and times zigzag varints. Floats travel as their IEEE-754 bits, so
// a vector component or score arrives as the float32 that left, NaN
// payloads and signed zeros included.
//
//	request:  version u8 | n u32 | dim u32 | n × k u32 | n·dim × f32
//	response: version u8 | n | n × (matches | match… | 8 × cost) | spans | span…
//	match:    len | id | score f32
//	span:     id [8]byte | parent [8]byte | len | name | start unix ns
//	          | duration ns | pairs | pairs × (len | key | len | value)
//
// Annotation keys go in ascending order and the decoders accept only
// canonical frames, so a frame that decodes re-encodes to its own bytes.
//
// On the stream each frame rides in an envelope whose u32 length prefix
// counts the bytes after it:
//
//	request envelope: len u32 | trace ID [16]byte | span ID [8]byte
//	                  | flags u8 | budget ns uvarint (0: none) | request frame
//	answer envelope:  len u32 | status u16 | response frame (2xx) or ErrorBody JSON
const (
	frameVersion     = 1
	requestHeaderLen = 9 // version, n, dim
	// maxFrameDim bounds dim on a shard built without one to check.
	maxFrameDim = 1 << 16

	traceContextLen = 16 + 8 + 1 // trace ID, span ID, flags
	// minEnvelopeLen and maxEnvelopeLen bound a request envelope's length
	// prefix: the trace context and a one-byte budget with an empty frame,
	// and the widest budget with the largest frame any shard admits. A
	// prefix outside them ends the stream; one inside is read to its end,
	// so the stream stays in step even when the frame is refused.
	minEnvelopeLen = traceContextLen + 1
	maxEnvelopeLen = traceContextLen + binary.MaxVarintLen64 + requestHeaderLen + 4*maxEncodedBatch*(1+maxFrameDim)
	answerHeadLen  = 4 + 2 // length prefix, status
)

// request is one decoded request envelope: the trace context the
// coordinator's query runs under, its remaining deadline (0: none) and the
// block of queries.
type request struct {
	sc     obs.SpanContext
	budget time.Duration
	qs     [][]float32
	ks     []int
}

// appendEnvelope appends the request envelope of a block of queries to
// dst.
func appendEnvelope(dst []byte, sc obs.SpanContext, budget time.Duration, qs [][]float32, ks []int) ([]byte, error) {
	at := len(dst)
	dst = append(append(append(dst, 0, 0, 0, 0), sc.TraceID[:]...), sc.SpanID[:]...)
	dst = binary.AppendUvarint(append(dst, sc.Flags), uint64(max(budget, 0)))
	dst, err := appendRequest(dst, qs, ks)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst, nil
}

// readEnvelope reads the next request envelope from a stream. A refusal
// (*frameError) is answered and the stream goes on, the envelope having
// been read to its end; an error ends the stream: the stream ended, or its
// length prefix is one no envelope can have. dim and maxN are
// readRequest's.
func readEnvelope(r io.Reader, dim, maxN int) (request, *frameError, error) {
	var head [4 + traceContextLen]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return request{}, nil, err
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size < minEnvelopeLen || size > maxEnvelopeLen {
		return request{}, nil, fmt.Errorf("netcluster: envelope length %d outside [%d, %d]", size, minEnvelopeLen, maxEnvelopeLen)
	}
	lr := &io.LimitedReader{R: r, N: int64(size)}
	req, fe := readEnvelopeBody(lr, head[4:], dim, maxN)
	// What a refusal left unread is skipped, keeping the stream in step;
	// io.Discard reads it through a pooled buffer.
	if _, err := io.Copy(io.Discard, lr); err != nil || lr.N > 0 {
		return request{}, nil, io.ErrUnexpectedEOF
	}
	return req, fe, nil
}

// readEnvelopeBody reads an envelope's trace context, budget and frame
// from lr, which holds the rest of the envelope.
func readEnvelopeBody(lr *io.LimitedReader, tc []byte, dim, maxN int) (request, *frameError) {
	var req request
	if _, err := io.ReadFull(lr, tc); err != nil {
		return req, &frameError{status: http.StatusBadRequest, msg: "reading the trace context: " + err.Error()}
	}
	copy(req.sc.TraceID[:], tc)
	copy(req.sc.SpanID[:], tc[16:])
	req.sc.Flags = tc[24]
	// The budget is a canonical uvarint of at most MaxInt64 nanoseconds.
	var b [1]byte
	var budget uint64
	for i := 0; ; i++ {
		if _, err := io.ReadFull(lr, b[:]); err != nil {
			return req, &frameError{status: http.StatusBadRequest, msg: "reading the deadline budget: " + err.Error()}
		}
		if i == binary.MaxVarintLen64-1 && b[0] > 1 || i > 0 && b[0] == 0 {
			return req, &frameError{status: http.StatusBadRequest, msg: "bad deadline budget"}
		}
		budget |= uint64(b[0]&0x7f) << (7 * i)
		if b[0] < 0x80 {
			break
		}
	}
	if budget > math.MaxInt64 {
		return req, &frameError{status: http.StatusBadRequest, msg: "bad deadline budget"}
	}
	req.budget = time.Duration(budget)
	var fe *frameError
	req.qs, req.ks, fe = readRequest(lr, lr.N, dim, maxN)
	return req, fe
}

// appendAnswer appends an answer envelope to dst: a status and, for 2xx,
// a response frame, an ErrorBody's JSON otherwise.
func appendAnswer(dst []byte, status int, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(2+len(body)))
	return append(binary.LittleEndian.AppendUint16(dst, uint16(status)), body...)
}

// appendErrorAnswer appends the answer envelope of a refusal or failure.
func appendErrorAnswer(dst []byte, status int, code, msg string) []byte {
	body, _ := json.Marshal(ErrorBody{Error: msg, Code: code})
	return appendAnswer(dst, status, body)
}

// errNoAnswer marks a stream that ended before an answer's first byte:
// the connection failed, not the answer, so the shard may never have
// seen the request.
var errNoAnswer = errors.New("netcluster: stream ended before the answer")

// readAnswer reads one answer envelope from r into buf's storage and
// returns the envelope, its status and its body. The buffer grows with the
// bytes that arrive, never by what a prefix claims, and a prefix over
// maxResponseBytes is refused before its body is read. A stream that ends
// before the first byte wraps errNoAnswer; any other failure is
// *MalformedError's cause.
func readAnswer(r io.Reader, buf []byte) ([]byte, int, []byte, error) {
	if cap(buf) < 512 {
		buf = make([]byte, 512)
	}
	buf = buf[:cap(buf)]
	n, err := io.ReadAtLeast(r, buf, answerHeadLen)
	switch {
	case n == 0 && err != nil:
		return buf[:0], 0, nil, fmt.Errorf("%w: %w", errNoAnswer, err)
	case err != nil:
		return buf[:0], 0, nil, fmt.Errorf("answer cut after %d bytes: %w", n, err)
	}
	size := binary.LittleEndian.Uint32(buf)
	if size > maxResponseBytes+2 {
		return buf[:0], 0, nil, fmt.Errorf("body exceeds %d bytes", maxResponseBytes)
	}
	total := 4 + int(size)
	if n > total {
		return buf[:0], 0, nil, fmt.Errorf("%d bytes past the answer", n-total)
	}
	for n < total {
		if n == len(buf) {
			buf = slices.Grow(buf[:n], min(total, 2*n)-n)[:min(total, 2*n)]
		}
		m, err := r.Read(buf[n:min(total, len(buf))])
		n += m
		if err != nil && n < total {
			return buf[:0], 0, nil, fmt.Errorf("answer cut after %d of %d bytes: %w", n, total, err)
		}
	}
	buf = buf[:total]
	return buf, int(binary.LittleEndian.Uint16(buf[4:])), buf[answerHeadLen:], nil
}

// appendRequest appends the request frame of a block of queries to dst.
// A k beyond the u32 range is clamped, and the shard refuses it like any
// other out-of-range k.
func appendRequest(dst []byte, qs [][]float32, ks []int) ([]byte, error) {
	dim := 0
	if len(qs) > 0 {
		dim = len(qs[0])
	}
	dst = slices.Grow(dst, requestHeaderLen+4*len(qs)*(1+dim))
	dst = binary.LittleEndian.AppendUint32(append(dst, frameVersion), uint32(len(qs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	for _, k := range ks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(min(uint64(max(k, 0)), math.MaxUint32)))
	}
	for i, q := range qs {
		if len(q) != dim {
			return nil, fmt.Errorf("netcluster: vector %d has %d dimensions, vector 0 has %d", i, len(q), dim)
		}
		for _, x := range q {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
		}
	}
	return dst, nil
}

// frameError is why the shard refuses a request frame, with the status it
// answers.
type frameError struct {
	status int
	msg    string
}

func refuse(status int, format string, args ...interface{}) ([][]float32, []int, *frameError) {
	return nil, nil, &frameError{status: status, msg: fmt.Sprintf(format, args...)}
}

// readRequest reads one request frame of size bytes (what its envelope
// holds after the budget) from r. It validates the header — 1 ≤ n ≤ maxN,
// dim the shard's (at most maxFrameDim when dim is 0), every k in
// 1..maxEncodedK — and matches size to the length the header declares
// before it reads the vectors; they are read into storage that grows with
// the bytes that arrive, so no frame costs more than the bytes it carries.
func readRequest(r io.Reader, size int64, dim, maxN int) ([][]float32, []int, *frameError) {
	const bad = http.StatusBadRequest
	var buf [4096]byte // the header, the ks (maxN ≤ 256), then the vectors a chunk at a time
	if _, err := io.ReadFull(r, buf[:requestHeaderLen]); err != nil {
		return refuse(bad, "reading the frame header: %v", err)
	}
	n, d := binary.LittleEndian.Uint32(buf[1:]), binary.LittleEndian.Uint32(buf[5:])
	want := requestHeaderLen + 4*int64(n)*(1+int64(d))
	switch {
	case buf[0] != frameVersion:
		return refuse(bad, "frame version %d; this shard speaks %d", buf[0], frameVersion)
	case n < 1 || n > uint32(maxN):
		return refuse(bad, "frame carries %d queries; want 1 to %d", n, maxN)
	case dim > 0 && d != uint32(dim):
		return refuse(bad, "vectors have %d dimensions; this shard indexes %d", d, dim)
	case d < 1 || d > maxFrameDim:
		return refuse(bad, "vectors have %d dimensions; want 1 to %d", d, maxFrameDim)
	case size < want:
		return refuse(bad, "frame is %d bytes; its header declares %d", size, want)
	case size > want:
		return refuse(http.StatusRequestEntityTooLarge, "frame is %d bytes; its header declares %d", size, want)
	}
	if _, err := io.ReadFull(r, buf[:4*n]); err != nil {
		return refuse(bad, "reading ks: %v", err)
	}
	ks := make([]int, n)
	for i := range ks {
		if ks[i] = int(binary.LittleEndian.Uint32(buf[4*i:])); ks[i] < 1 || ks[i] > maxEncodedK {
			return refuse(bad, "ks[%d] must be between 1 and %d", i, maxEncodedK)
		}
	}
	total := int(n) * int(d)
	flat := make([]float32, 0, min(total, 8<<10))
	for len(flat) < total {
		m := min(len(buf)/4, total-len(flat))
		if _, err := io.ReadFull(r, buf[:4*m]); err != nil {
			return refuse(bad, "reading vectors: %v", err)
		}
		for j := 0; j < m; j++ {
			flat = append(flat, math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:])))
		}
	}
	qs := make([][]float32, n)
	for i := range qs {
		qs[i] = flat[i*int(d) : (i+1)*int(d) : (i+1)*int(d)]
	}
	return qs, ks, nil
}

// appendResponse appends the response frame of a shard's answer to dst;
// rep.costs is aligned with rep.ms.
func appendResponse(dst []byte, rep reply) []byte {
	dst = binary.AppendUvarint(append(dst, frameVersion), uint64(len(rep.ms)))
	for i, ms := range rep.ms {
		dst = binary.AppendUvarint(dst, uint64(len(ms)))
		for _, m := range ms {
			dst = binary.LittleEndian.AppendUint32(appendString(dst, m.RelationID), math.Float32bits(m.Score))
		}
		for _, v := range costFields(&rep.costs[i]) {
			dst = binary.AppendVarint(dst, *v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rep.spans)))
	var keys []string
	for _, sp := range rep.spans {
		dst = appendString(append(append(dst, sp.SpanID[:]...), sp.Parent[:]...), sp.Name)
		dst = binary.AppendVarint(binary.AppendVarint(dst, sp.Start.UnixNano()), int64(sp.Duration))
		keys = keys[:0]
		for k := range sp.Annotations {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = binary.AppendUvarint(dst, uint64(len(keys)))
		for _, k := range keys {
			dst = appendString(appendString(dst, k), sp.Annotations[k])
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// costFields lists a report's eight counters in frame order.
func costFields(c *obs.CostReport) [8]*int64 {
	return [8]*int64{&c.DistanceComps, &c.HNSWHops, &c.PQLookups, &c.ValuesScanned,
		&c.BytesScanned, &c.CandidatesGenerated, &c.CandidatesPruned, &c.CacheHits}
}

// decodeResponse decodes one response frame; a truncated frame, trailing
// bytes or a non-canonical encoding is an error. Each count must fit the
// bytes left at its item's smallest encoding (a query: match count + 8
// costs; a match: empty ID + score; a span: 2 IDs + 4 fields; an
// annotation: 2 empty strings), so none allocates past the frame's size.
func decodeResponse(b []byte) (reply, error) {
	d := frameDecoder{b: b}
	if v := d.bytes(1); v[0] != frameVersion {
		d.fail(fmt.Errorf("frame version %d; this client speaks %d", v[0], frameVersion))
	}
	nq := d.count(1 + 8)
	rep := reply{ms: make([][]core.Match, nq), costs: make([]obs.CostReport, nq)}
	for i := range rep.ms {
		rep.ms[i] = make([]core.Match, d.count(1+4))
		for j := range rep.ms[i] {
			rep.ms[i][j] = core.Match{RelationID: d.string(), Score: math.Float32frombits(binary.LittleEndian.Uint32(d.bytes(4)))}
		}
		for _, v := range costFields(&rep.costs[i]) {
			*v = d.varint()
		}
	}
	rep.spans = make([]obs.SpanRecord, d.count(8+8+4))
	for i := range rep.spans {
		sp := &rep.spans[i]
		copy(sp.SpanID[:], d.bytes(8))
		copy(sp.Parent[:], d.bytes(8))
		sp.Name = d.string()
		sp.Start, sp.Duration = time.Unix(0, d.varint()), time.Duration(d.varint())
		if na := d.count(2); na > 0 {
			sp.Annotations = make(map[string]string, na)
			for a, prev := 0, ""; a < na; a++ {
				k := d.string()
				if a > 0 && k <= prev {
					d.fail(fmt.Errorf("span %d: annotation keys out of order", i))
				}
				sp.Annotations[k], prev = d.string(), k
			}
		}
	}
	if len(d.b) > 0 {
		d.fail(fmt.Errorf("%d trailing bytes", len(d.b)))
	}
	return rep, d.err
}

// frameDecoder consumes a frame front to back. The first failure sticks
// and empties the frame, so later reads return zeros and counts 0.
type frameDecoder struct {
	b   []byte
	err error
}

func (d *frameDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// bytes consumes the next n bytes, or fails and returns n zeros.
func (d *frameDecoder) bytes(n int) []byte {
	if len(d.b) < n {
		d.fail(errors.New("truncated frame"))
		return make([]byte, n)
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// uvarint consumes one canonical uvarint: binary.Uvarint also accepts
// padded encodings (a zero last byte), which would re-encode shorter.
func (d *frameDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.fail(errors.New("bad varint"))
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varint consumes one zigzag varint, binary.Varint's encoding.
func (d *frameDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count consumes the count of items of at least minLen bytes each that
// follow, failing unless the rest of the frame can hold them.
func (d *frameDecoder) count(minLen int) int {
	v := d.uvarint()
	if v > uint64(len(d.b)/minLen) {
		d.fail(fmt.Errorf("count %d exceeds what %d remaining bytes can hold", v, len(d.b)))
		return 0
	}
	return int(v)
}

func (d *frameDecoder) string() string {
	return string(d.bytes(d.count(1)))
}
