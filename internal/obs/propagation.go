package obs

import (
	"context"
	"encoding/hex"
	"strings"
)

// SpanContext is the propagatable identity of a trace position: which
// trace a request belongs to and which span is its parent — exactly the
// fields a W3C traceparent header carries. It is what crosses process
// boundaries so the future networked shards join the coordinator's trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both IDs are non-zero, the W3C well-formedness
// requirement.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value:
// version 00, lowercase hex, "00-<trace-id>-<parent-id>-<flags>".
func (sc SpanContext) Traceparent() string {
	var b [55]byte
	copy(b[:], "00-")
	hex.Encode(b[3:35], sc.TraceID[:])
	b[35] = '-'
	hex.Encode(b[36:52], sc.SpanID[:])
	b[52] = '-'
	b[53], b[54] = hexDigits[sc.Flags>>4], hexDigits[sc.Flags&0xf]
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

// ParseTraceparent parses a W3C traceparent header value. Per the spec:
// exactly four hyphen-separated fields for version 00; future versions
// (anything but "ff") are accepted as long as the first four fields parse,
// ignoring any trailing additions; all-zero trace or parent IDs, bad
// lengths and non-hex input are rejected. Hex must be lowercase.
func ParseTraceparent(h string) (SpanContext, bool) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, false
	}
	parts := strings.SplitN(h, "-", 5)
	if len(parts) < 4 {
		return sc, false
	}
	version, ok := parseHexByte(parts[0])
	if !ok || version == 0xff {
		return sc, false
	}
	if version == 0 && (len(parts) != 4 || len(h) != 55) {
		// Version 00 is exactly 55 chars with no fifth field.
		return sc, false
	}
	tid, ok := parseLowerTraceID(parts[1])
	if !ok {
		return sc, false
	}
	sid, ok := parseLowerSpanID(parts[2])
	if !ok {
		return sc, false
	}
	flags, ok := parseHexByte(parts[3])
	if !ok {
		return sc, false
	}
	sc = SpanContext{TraceID: tid, SpanID: sid, Flags: flags}
	return sc, true
}

// parseHexByte parses exactly two lowercase hex digits.
func parseHexByte(s string) (byte, bool) {
	if len(s) != 2 {
		return 0, false
	}
	hi, ok1 := hexVal(s[0])
	lo, ok2 := hexVal(s[1])
	if !ok1 || !ok2 {
		return 0, false
	}
	return hi<<4 | lo, true
}

// hexVal decodes one lowercase hex digit; uppercase is rejected, per the
// traceparent ABNF.
func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

func parseLowerTraceID(s string) (TraceID, bool) {
	if !isLowerHex(s) {
		return TraceID{}, false
	}
	return ParseTraceID(s)
}

func parseLowerSpanID(s string) (SpanID, bool) {
	if !isLowerHex(s) {
		return SpanID{}, false
	}
	return ParseSpanID(s)
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if _, ok := hexVal(s[i]); !ok {
			return false
		}
	}
	return true
}

type spanContextKey struct{}
type requestIDKey struct{}
type traceKey struct{}

// ContextWithTrace attaches the live *Trace collecting this request's
// spans, so layers that receive only a context (a networked replica group
// deep under the router) can graft remote span records into it.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the context's live trace; nil when none — and a nil
// *Trace is a valid no-op for Adopt and StartSpan alike.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// ContextWithSpan attaches a propagated span context; searches started
// under the returned context join that trace instead of minting a new ID.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanContextKey{}, sc)
}

// SpanContextFrom extracts a propagated span context, ok=false when none.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanContextKey{}).(SpanContext)
	return sc, ok
}

// ContextWithRequestID attaches the request correlation ID so the access
// log and the stored traces can be joined on it.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request correlation ID, "" when none.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// NewTraceFrom builds a trace for a request under ctx: continuing the
// propagated trace when ctx carries a SpanContext, minting a fresh trace
// ID otherwise.
func NewTraceFrom(ctx context.Context) *Trace {
	if sc, ok := SpanContextFrom(ctx); ok && sc.Valid() {
		return NewTraceWith(sc.TraceID, sc.SpanID, sc.Flags)
	}
	return NewTrace()
}
