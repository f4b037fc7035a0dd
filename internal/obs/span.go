package obs

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"time"
)

// TraceID is a 128-bit trace identifier, the W3C Trace Context format.
// The zero value is invalid: the spec reserves all-zero IDs as "absent".
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// Reuse returns s when it is already the ID's String form, and String()
// otherwise, so a layer handed the rendering by its caller does not format
// the ID again.
func (id TraceID) Reuse(s string) string {
	if len(s) != 32 {
		return id.String()
	}
	for i, c := range id {
		if s[2*i] != hexDigits[c>>4] || s[2*i+1] != hexDigits[c&0xf] {
			return id.String()
		}
	}
	return s
}

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// SpanID is a 64-bit span identifier. All-zero is invalid.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// NewTraceID returns a random non-zero trace ID. The generator is
// math/rand/v2's goroutine-safe ChaCha8 stream — cheap enough to mint an
// ID per request.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[0:8], rand.Uint64())
		binary.BigEndian.PutUint64(id[8:16], rand.Uint64())
	}
	return id
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], rand.Uint64())
	}
	return id
}

// ParseTraceID parses 32 hex digits into a TraceID. ok is false on bad
// length, non-hex input or the all-zero ID.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// ParseSpanID parses 16 hex digits into a SpanID. ok is false on bad
// length, non-hex input or the all-zero ID.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 16 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// FlagSampled is the W3C trace-flags bit meaning "the caller recorded
// this trace"; traces this process starts carry it.
const FlagSampled byte = 0x01

// SpanRecord is one completed span of a trace: the stage data plus its
// position in the span tree. Parent is zero for the root span.
type SpanRecord struct {
	SpanID      SpanID
	Parent      SpanID
	Name        string
	Start       time.Time
	Duration    time.Duration
	Annotations map[string]string
}
