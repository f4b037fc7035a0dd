package obs

import (
	"context"
	"strings"
	"testing"
)

const (
	validTraceHex = "4bf92f3577b34da6a3ce929d0e0e4736"
	validSpanHex  = "00f067aa0ba902b7"
)

func TestParseTraceparentValid(t *testing.T) {
	h := "00-" + validTraceHex + "-" + validSpanHex + "-01"
	sc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected a valid header", h)
	}
	if got := sc.TraceID.String(); got != validTraceHex {
		t.Errorf("trace ID = %s, want %s", got, validTraceHex)
	}
	if got := sc.SpanID.String(); got != validSpanHex {
		t.Errorf("span ID = %s, want %s", got, validSpanHex)
	}
	if sc.Flags != FlagSampled {
		t.Errorf("flags = %#x, want %#x", sc.Flags, FlagSampled)
	}
	if !sc.Valid() {
		t.Error("parsed span context should be valid")
	}
	// Round trip through the formatter.
	if got := sc.Traceparent(); got != h {
		t.Errorf("Traceparent() = %q, want %q", got, h)
	}
}

func TestParseTraceparentFlagHandling(t *testing.T) {
	for _, flags := range []string{"00", "01", "ff", "7e"} {
		h := "00-" + validTraceHex + "-" + validSpanHex + "-" + flags
		sc, ok := ParseTraceparent(h)
		if !ok {
			t.Errorf("flags %q rejected", flags)
			continue
		}
		want := byte(0)
		for i := 0; i < 2; i++ {
			c := flags[i]
			want <<= 4
			if c >= 'a' {
				want |= c - 'a' + 10
			} else {
				want |= c - '0'
			}
		}
		if sc.Flags != want {
			t.Errorf("flags %q parsed as %#x, want %#x", flags, sc.Flags, want)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := map[string]string{
		"empty":                 "",
		"truncated":             "00-" + validTraceHex,
		"version ff":            "ff-" + validTraceHex + "-" + validSpanHex + "-01",
		"bad version hex":       "0x-" + validTraceHex + "-" + validSpanHex + "-01",
		"one-digit version":     "0-" + validTraceHex + "-" + validSpanHex + "-01",
		"short trace id":        "00-" + validTraceHex[:31] + "-" + validSpanHex + "-01",
		"long trace id":         "00-" + validTraceHex + "0-" + validSpanHex + "-01",
		"short span id":         "00-" + validTraceHex + "-" + validSpanHex[:15] + "-01",
		"all-zero trace id":     "00-" + strings.Repeat("0", 32) + "-" + validSpanHex + "-01",
		"all-zero span id":      "00-" + validTraceHex + "-" + strings.Repeat("0", 16) + "-01",
		"uppercase trace id":    "00-" + strings.ToUpper(validTraceHex) + "-" + validSpanHex + "-01",
		"uppercase flags":       "00-" + validTraceHex + "-" + validSpanHex + "-0F",
		"non-hex trace id":      "00-" + "zz" + validTraceHex[2:] + "-" + validSpanHex + "-01",
		"one-digit flags":       "00-" + validTraceHex + "-" + validSpanHex + "-1",
		"three-digit flags":     "00-" + validTraceHex + "-" + validSpanHex + "-011",
		"version 00 with extra": "00-" + validTraceHex + "-" + validSpanHex + "-01-extra",
	}
	for name, h := range cases {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, h)
		}
	}
}

func TestParseTraceparentFutureVersionLenient(t *testing.T) {
	// Per W3C, an unknown (non-ff) version is parsed by its first four
	// fields, ignoring trailing additions.
	h := "42-" + validTraceHex + "-" + validSpanHex + "-01-future-field"
	sc, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("future-version header %q rejected", h)
	}
	if sc.TraceID.String() != validTraceHex || sc.SpanID.String() != validSpanHex {
		t.Errorf("future-version header parsed wrong IDs: %s %s", sc.TraceID, sc.SpanID)
	}
}

func TestTraceparentFormatZeroFlags(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: 0}
	h := sc.Traceparent()
	if len(h) != 55 {
		t.Fatalf("Traceparent length = %d, want 55", len(h))
	}
	if !strings.HasSuffix(h, "-00") {
		t.Errorf("zero flags rendered as %q, want suffix -00", h)
	}
	back, ok := ParseTraceparent(h)
	if !ok || back != sc {
		t.Errorf("round trip failed: %q -> %+v ok=%v", h, back, ok)
	}
}

func TestParseIDValidation(t *testing.T) {
	if _, ok := ParseTraceID(strings.Repeat("0", 32)); ok {
		t.Error("all-zero trace ID accepted")
	}
	if _, ok := ParseSpanID(strings.Repeat("0", 16)); ok {
		t.Error("all-zero span ID accepted")
	}
	if _, ok := ParseTraceID("short"); ok {
		t.Error("short trace ID accepted")
	}
	id := NewTraceID()
	back, ok := ParseTraceID(id.String())
	if !ok || back != id {
		t.Errorf("trace ID round trip failed: %s", id)
	}
	sid := NewSpanID()
	sback, ok := ParseSpanID(sid.String())
	if !ok || sback != sid {
		t.Errorf("span ID round trip failed: %s", sid)
	}
	// Reuse keeps a string only when it is the ID's own rendering.
	hexID := id.String()
	if got := id.Reuse(hexID); got != hexID {
		t.Errorf("Reuse(own hex) = %q", got)
	}
	for _, other := range []string{"", "req-1", strings.Repeat("g", 32), NewTraceID().String(), hexID[:31] + "x"} {
		if got := id.Reuse(other); got != hexID {
			t.Errorf("Reuse(%q) = %q, want %q", other, got, hexID)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if _, ok := SpanContextFrom(ctx); ok {
		t.Error("empty context should carry no span context")
	}
	if RequestIDFrom(ctx) != "" {
		t.Error("empty context should carry no request ID")
	}
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Flags: FlagSampled}
	ctx = ContextWithSpan(ctx, sc)
	ctx = ContextWithRequestID(ctx, "req-1")
	got, ok := SpanContextFrom(ctx)
	if !ok || got != sc {
		t.Errorf("SpanContextFrom = %+v ok=%v, want %+v", got, ok, sc)
	}
	if RequestIDFrom(ctx) != "req-1" {
		t.Errorf("RequestIDFrom = %q, want req-1", RequestIDFrom(ctx))
	}

	tr := NewTraceFrom(ctx)
	if tr.ID() != sc.TraceID {
		t.Errorf("NewTraceFrom adopted trace ID %s, want %s", tr.ID(), sc.TraceID)
	}
	if tr.Remote() != sc.SpanID {
		t.Errorf("NewTraceFrom remote = %s, want %s", tr.Remote(), sc.SpanID)
	}
	// Without a span context a fresh ID is minted.
	fresh := NewTraceFrom(context.Background())
	if fresh.ID().IsZero() {
		t.Error("NewTraceFrom minted a zero trace ID")
	}
	if fresh.ID() == sc.TraceID {
		t.Error("fresh trace reused the propagated ID")
	}
}

// FuzzParseTraceparent feeds ParseTraceparent arbitrary header values: it
// must never panic, whatever it accepts must be a valid context, and an
// accepted version-00 header must render back to the same bytes.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-" + validTraceHex + "-" + validSpanHex + "-01")
	f.Add("01-" + validTraceHex + "-" + validSpanHex + "-00-extra")
	f.Add("00-" + strings.ToUpper(validTraceHex) + "-" + validSpanHex + "-01")
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("%q: accepted an invalid context %+v", h, sc)
		}
		if strings.HasPrefix(h, "00-") {
			if got := sc.Traceparent(); got != h {
				t.Fatalf("%q renders back as %q", h, got)
			}
		}
	})
}
