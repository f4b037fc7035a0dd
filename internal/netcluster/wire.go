package netcluster

import (
	"encoding/binary"
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

// Wire paths of the internal coordinator↔shard protocol. They live under
// /internal/ because they accept pre-encoded vectors: the public API's
// contract (queries are strings, embeddings never leave the box they were
// computed on) does not hold for them, and a deployment fronting shards
// with a reverse proxy should not route them from outside.
const (
	// PathEncodedSearch is the single-query encoded-search endpoint.
	PathEncodedSearch = "/internal/v1/search/encoded"
	// PathEncodedSearchBatch is the blocked multi-query variant.
	PathEncodedSearchBatch = "/internal/v1/search/encoded/batch"
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
// logical content of a PathEncodedSearch exchange, for tools that measure
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

// The frame both encoded-search routes speak, in both directions (DESIGN.md
// §9). Fixed-width fields are little-endian, counts and lengths uvarints,
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
const (
	// FrameContentType is the frame's media type; a shard answers a
	// request of any other type 415.
	FrameContentType = "application/x-semdisco-frame"
	frameVersion     = 1
	requestHeaderLen = 9 // version, n, dim
	// maxFrameDim bounds dim on a shard built without one to check.
	maxFrameDim = 1 << 16
)

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

// readRequest reads one request frame of size bytes (the body's
// Content-Length) from r. It validates the header — 1 ≤ n ≤ maxN, dim the
// shard's (at most maxFrameDim when dim is 0), every k in 1..maxEncodedK —
// and matches size to the length the header declares before it allocates
// the vectors, so no body costs more than the validated frame it carries.
func readRequest(r io.Reader, size int64, dim, maxN int) ([][]float32, []int, *frameError) {
	const bad = http.StatusBadRequest
	var buf [4096]byte // the header, the ks (maxN ≤ 256), then the vectors a chunk at a time
	if _, err := io.ReadFull(r, buf[:requestHeaderLen]); err != nil {
		return refuse(bad, "reading the frame header: %v", err)
	}
	n, d := binary.LittleEndian.Uint32(buf[1:]), binary.LittleEndian.Uint32(buf[5:])
	want := requestHeaderLen + 4*int64(n)*(1+int64(d))
	switch {
	case size < 0:
		return refuse(http.StatusLengthRequired, "a request frame needs a Content-Length")
	case buf[0] != frameVersion:
		return refuse(bad, "frame version %d; this shard speaks %d", buf[0], frameVersion)
	case n < 1 || n > uint32(maxN):
		return refuse(bad, "frame carries %d queries; this route takes 1 to %d", n, maxN)
	case dim > 0 && d != uint32(dim):
		return refuse(bad, "vectors have %d dimensions; this shard indexes %d", d, dim)
	case d < 1 || d > maxFrameDim:
		return refuse(bad, "vectors have %d dimensions; want 1 to %d", d, maxFrameDim)
	case size < want:
		return refuse(bad, "body is %d bytes; its frame header declares %d", size, want)
	case size > want:
		return refuse(http.StatusRequestEntityTooLarge, "body is %d bytes; its frame header declares %d", size, want)
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
	flat := make([]float32, int(n)*int(d))
	for off := 0; off < len(flat); off += len(buf) / 4 {
		chunk := flat[off:min(off+len(buf)/4, len(flat))]
		if _, err := io.ReadFull(r, buf[:4*len(chunk)]); err != nil {
			return refuse(bad, "reading vectors: %v", err)
		}
		for j := range chunk {
			chunk[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
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
