package obs

import (
	"strconv"
	"sync"
	"time"
)

// Trace collects the span tree of one request: a 128-bit trace ID, an
// optional root span, and the completed spans with parent links. A nil
// *Trace is the off switch: StartSpan still times (so metrics stay
// correct) but nothing is retained, making per-request tracing free
// unless a caller opts in.
type Trace struct {
	id     TraceID
	flags  byte
	remote SpanID // inbound traceparent's span ID; zero for local roots
	start  time.Time

	mu     sync.Mutex
	rootID SpanID
	spans  []SpanRecord
	// spanBuf holds the first spans, so a single query's tree (a root and
	// its stages) needs no allocation beyond the Trace.
	spanBuf [6]SpanRecord
}

// NewTrace returns an empty trace with a fresh random trace ID.
func NewTrace() *Trace {
	return &Trace{id: NewTraceID(), flags: FlagSampled, start: time.Now()}
}

// NewTraceWith returns an empty trace continuing a propagated context:
// the caller's trace ID is adopted and remote becomes the parent of this
// process's root span, so spans from both sides join one tree.
func NewTraceWith(id TraceID, remote SpanID, flags byte) *Trace {
	if id.IsZero() {
		return NewTrace()
	}
	return &Trace{id: id, flags: flags | FlagSampled, remote: remote, start: time.Now()}
}

// ID returns the trace's 128-bit identifier; zero on a nil trace.
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// Flags returns the W3C trace-flags byte; 0 on a nil trace.
func (t *Trace) Flags() byte {
	if t == nil {
		return 0
	}
	return t.flags
}

// Remote returns the inbound parent span ID this trace continues from;
// zero when the trace was started locally.
func (t *Trace) Remote() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.remote
}

// Start returns when the trace was created.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// StartRoot begins the trace's root span. Spans later started with
// StartSpan become its children; the root itself is parented to the
// remote span when the trace was propagated in. Valid on a nil receiver.
func (t *Trace) StartRoot(name string) *Span {
	if t == nil {
		return &Span{name: name, start: time.Now()}
	}
	s := &Span{tr: t, id: NewSpanID(), parent: t.remote, name: name, start: time.Now()}
	t.mu.Lock()
	t.rootID = s.id
	t.mu.Unlock()
	return s
}

// StartSpan begins timing a named stage, parented under the trace's root
// span when one has been started. Valid on a nil receiver.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return &Span{name: name, start: time.Now()}
	}
	t.mu.Lock()
	parent := t.rootID
	t.mu.Unlock()
	return &Span{tr: t, id: NewSpanID(), parent: parent, name: name, start: time.Now()}
}

// RootID returns the root span's ID, zero before StartRoot.
func (t *Trace) RootID() SpanID {
	if t == nil {
		return SpanID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rootID
}

func (t *Trace) add(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.spans == nil {
		t.spans = t.spanBuf[:0]
	}
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// Adopt grafts remote span records into the trace — how a coordinator
// folds the shard-side spans a wire response carried into its own tree.
// The records keep their IDs and parent links; because the shard
// continued the coordinator's propagated trace context, its root span is
// already parented under a local span and the trees join. No-op on a nil
// receiver or empty input.
func (t *Trace) Adopt(recs []SpanRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, recs...)
	t.mu.Unlock()
}

// Spans returns a copy of every completed span in completion order,
// including the root.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}

// Span is one in-flight stage. It always measures time — End reports the
// duration even when the parent trace is nil — but annotations and the
// recorded span are dropped unless a trace is attached.
type Span struct {
	tr          *Trace
	id          SpanID
	parent      SpanID
	name        string
	start       time.Time
	annotations map[string]string
}

// Name returns the span's stage name; "" on a nil span.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's identifier; zero on a nil span or when the parent
// trace is nil (untraced spans never mint IDs).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// StartChild begins a new span parented under this one — the fan-out
// primitive: the scatter span starts one child per shard attempt. Valid
// on a nil span or with a nil trace (the child times but records nothing).
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return &Span{name: name, start: time.Now()}
	}
	return &Span{tr: s.tr, id: NewSpanID(), parent: s.id, name: name, start: time.Now()}
}

// Annotate attaches a key/value detail to the span. No-op on a nil span or
// when the parent trace is nil. Returns the span for chaining.
func (s *Span) Annotate(key, value string) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	if s.annotations == nil {
		s.annotations = make(map[string]string)
	}
	s.annotations[key] = value
	return s
}

// AnnotateInt is Annotate for integer values.
func (s *Span) AnnotateInt(key string, v int) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	return s.Annotate(key, strconv.Itoa(v))
}

// End finishes the span, records it on the trace (if any) and returns the
// measured duration. A nil span returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.tr != nil {
		s.tr.add(SpanRecord{
			SpanID:      s.id,
			Parent:      s.parent,
			Name:        s.name,
			Start:       s.start,
			Duration:    d,
			Annotations: s.annotations,
		})
	}
	return d
}
