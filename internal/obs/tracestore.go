package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceOutcome is what the serving layer knows about a finished request
// when it offers its trace to the store — the inputs to the tail-based
// retention decision plus the summary fields worth keeping alongside the
// span tree.
type TraceOutcome struct {
	Duration time.Duration
	Query    string
	Method   string
	K        int
	Matches  int
	// Cost is the request's CostReport.Total(): the sum of the root span's
	// distance_comps, hnsw_hops and pq_lookups annotations.
	Cost int64
	// RequestID is the HTTP correlation ID, "" for in-process callers.
	RequestID string
	// Err is the failure text; any error makes the trace interesting.
	Err string
	// Degraded reports a scatter-gather answer missing one or more shards.
	Degraded bool
	// ShardErrors lists per-shard failure texts, ascending by shard.
	ShardErrors []string
}

// StoredSpan is one span of a retained trace, serialization-ready: IDs as
// hex, times as offsets from the trace start.
type StoredSpan struct {
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartOffsetMS float64           `json:"start_offset_ms"`
	DurationMS    float64           `json:"duration_ms"`
	Annotations   map[string]string `json:"annotations,omitempty"`
}

// StoredTrace is one retained trace: why it was kept, the request
// summary, and the complete span records.
type StoredTrace struct {
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
	// Kind is the retention reason: "error", "degraded", "slow"
	// (tail-based) or "sampled" (1-in-M head sample).
	Kind        string       `json:"kind"`
	Query       string       `json:"query,omitempty"`
	Method      string       `json:"method,omitempty"`
	K           int          `json:"k,omitempty"`
	Matches     int          `json:"matches"`
	DurationMS  float64      `json:"duration_ms"`
	Cost        int64        `json:"cost"`
	RequestID   string       `json:"request_id,omitempty"`
	Err         string       `json:"error,omitempty"`
	Degraded    bool         `json:"degraded,omitempty"`
	ShardErrors []string     `json:"shard_errors,omitempty"`
	Spans       []StoredSpan `json:"spans"`
}

// TraceStoreConfig tunes a TraceStore.
type TraceStoreConfig struct {
	// Capacity is the retained-trace ring size; default 256.
	Capacity int
	// LatencyThreshold marks a trace interesting when the request ran at
	// least this long. 0 disables the latency criterion.
	LatencyThreshold time.Duration
	// HeadSampleEvery additionally keeps 1 in every M uninteresting
	// traces, so the store always holds baseline examples to compare slow
	// outliers against. 0 disables head sampling.
	HeadSampleEvery int
}

// TraceStore is the tail-sampling retention layer: every finished request
// offers its trace, and the store keeps the ones whose outcome makes them
// worth a human's time — errors, degraded scatter-gathers, latency over
// the threshold — plus a 1-in-M head sample for baseline.
// Eviction is strictly oldest-first. A nil *TraceStore is a valid no-op.
type TraceStore struct {
	cfg     TraceStoreConfig
	sampler *Sampler

	offered atomic.Int64
	kept    atomic.Int64
	evicted atomic.Int64

	mu   sync.Mutex
	buf  []StoredTrace
	byID map[string]int // trace ID -> ring slot
	next int
	n    int
}

// NewTraceStore returns a store retaining up to cfg.Capacity traces.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	return &TraceStore{
		cfg:     cfg,
		sampler: NewSampler(cfg.HeadSampleEvery),
		buf:     make([]StoredTrace, cfg.Capacity),
		byID:    make(map[string]int, cfg.Capacity),
	}
}

// kind classifies why a trace is retained; "" means not interesting.
// Severity order: an error outranks degradation outranks plain slowness,
// so the stored Kind names the worst thing that happened.
func (s *TraceStore) kind(o TraceOutcome) string {
	switch {
	case o.Err != "":
		return "error"
	case o.Degraded || len(o.ShardErrors) > 0:
		return "degraded"
	case s.cfg.LatencyThreshold > 0 && o.Duration >= s.cfg.LatencyThreshold:
		return "slow"
	default:
		return ""
	}
}

// Offer submits one finished trace with its outcome. The store keeps it
// when the outcome is interesting or the head sampler fires, and reports
// whether it was kept and under which kind. Safe for concurrent use; a
// nil store or nil trace keeps nothing.
func (s *TraceStore) Offer(tr *Trace, o TraceOutcome) (kept bool, kind string) {
	if s == nil || tr == nil {
		return false, ""
	}
	s.offered.Add(1)
	kind = s.kind(o)
	// The head sampler counts every offer, interesting or not, so its
	// 1-in-M cadence is stable regardless of how noisy the tail is.
	sampled := s.sampler.Sample()
	if kind == "" {
		if !sampled {
			return false, ""
		}
		kind = "sampled"
	}
	st := StoredTrace{
		TraceID:     tr.ID().String(),
		Time:        tr.Start(),
		Kind:        kind,
		Query:       o.Query,
		Method:      o.Method,
		K:           o.K,
		Matches:     o.Matches,
		DurationMS:  float64(o.Duration) / float64(time.Millisecond),
		Cost:        o.Cost,
		RequestID:   o.RequestID,
		Err:         o.Err,
		Degraded:    o.Degraded,
		ShardErrors: o.ShardErrors,
		Spans:       storedSpans(tr),
	}
	s.kept.Add(1)
	s.mu.Lock()
	if s.n == len(s.buf) {
		s.evicted.Add(1)
		// A retry may reuse its traceparent, so the evicted ID can also name
		// a newer slot; that entry stays.
		if old := s.buf[s.next].TraceID; s.byID[old] == s.next {
			delete(s.byID, old)
		}
	}
	s.buf[s.next] = st
	s.byID[st.TraceID] = s.next
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
	return true, kind
}

// storedSpans converts a trace's span records to the serialization form.
// The root span's record names the remote span as its parent when the
// trace was propagated in — the cross-process link a distributed trace
// viewer stitches on.
func storedSpans(tr *Trace) []StoredSpan {
	recs := tr.Spans()
	start := tr.Start()
	out := make([]StoredSpan, len(recs))
	for i, r := range recs {
		sp := StoredSpan{
			SpanID:        r.SpanID.String(),
			Name:          r.Name,
			StartOffsetMS: float64(r.Start.Sub(start)) / float64(time.Millisecond),
			DurationMS:    float64(r.Duration) / float64(time.Millisecond),
			Annotations:   r.Annotations,
		}
		if !r.Parent.IsZero() {
			sp.ParentID = r.Parent.String()
		}
		out[i] = sp
	}
	return out
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Offered returns the lifetime count of traces submitted via Offer.
func (s *TraceStore) Offered() int64 {
	if s == nil {
		return 0
	}
	return s.offered.Load()
}

// Kept returns the lifetime count of traces retained.
func (s *TraceStore) Kept() int64 {
	if s == nil {
		return 0
	}
	return s.kept.Load()
}

// Evicted returns how many retained traces were evicted to make room.
func (s *TraceStore) Evicted() int64 {
	if s == nil {
		return 0
	}
	return s.evicted.Load()
}

// Get fetches one retained trace by its hex trace ID.
func (s *TraceStore) Get(id string) (StoredTrace, bool) {
	if s == nil {
		return StoredTrace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.byID[id]
	if !ok {
		return StoredTrace{}, false
	}
	return s.buf[slot], true
}

// List returns up to n retained traces, newest first. n ≤ 0 returns all.
func (s *TraceStore) List(n int) []StoredTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StoredTrace, 0, s.n)
	for i := 1; i <= s.n; i++ {
		out = append(out, s.buf[((s.next-i)%len(s.buf)+len(s.buf))%len(s.buf)])
		if n > 0 && len(out) == n {
			break
		}
	}
	return out
}

// Slowest returns up to n retained traces, longest duration first, ties
// newest first. n ≤ 0 returns all.
func (s *TraceStore) Slowest(n int) []StoredTrace {
	return s.top(n, func(a, b *StoredTrace) bool { return a.DurationMS > b.DurationMS })
}

// Costliest returns up to n retained traces, highest cost first, ties
// newest first. n ≤ 0 returns all.
func (s *TraceStore) Costliest(n int) []StoredTrace {
	return s.top(n, func(a, b *StoredTrace) bool { return a.Cost > b.Cost })
}

// top returns up to n retained traces stably sorted by before, so ties
// keep List's newest-first order. n ≤ 0 returns all.
func (s *TraceStore) top(n int, before func(a, b *StoredTrace) bool) []StoredTrace {
	out := s.List(0)
	sort.SliceStable(out, func(i, j int) bool { return before(&out[i], &out[j]) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteJSONL streams the newest n retained traces (n ≤ 0: all) to w as
// JSON lines, oldest first. Safe on a nil receiver (writes nothing).
func (s *TraceStore) WriteJSONL(w io.Writer, n int) error {
	list := s.List(n)
	enc := json.NewEncoder(w)
	for i := len(list) - 1; i >= 0; i-- {
		if err := enc.Encode(list[i]); err != nil {
			return err
		}
	}
	return nil
}

// Sampler implements head-based 1-in-M sampling with a single atomic
// counter: the first call samples, then every M-th after it, so the sample
// is deterministic under load rather than probabilistic. A nil *Sampler
// (or M ≤ 0) never samples.
type Sampler struct {
	every int64
	ctr   atomic.Int64
}

// NewSampler returns a sampler firing on 1 of every `every` calls.
// every ≤ 0 disables sampling; every == 1 samples every call.
func NewSampler(every int) *Sampler {
	return &Sampler{every: int64(every)}
}

// Sample reports whether this call is part of the 1-in-M sample.
func (s *Sampler) Sample() bool {
	if s == nil || s.every <= 0 {
		return false
	}
	return (s.ctr.Add(1)-1)%s.every == 0
}
