// Package obs is the observability substrate of the engine: atomic
// counters, gauges and lock-cheap latency histograms behind a named
// registry, plus a Span/Trace API for per-request stage breakdowns.
//
// Everything is pure stdlib and nil-safe: a nil *Registry hands out nil
// metrics whose methods are no-ops, and a nil *Trace produces spans that
// time but record nothing — so instrumented code never branches on whether
// observability is enabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(floatBits(v))
}

// Add atomically adds d to the gauge. No-op on a nil receiver.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// numBuckets covers 1µs .. ~67s in powers of two, plus a +Inf overflow
// bucket; bucket i holds observations ≤ 2^i microseconds.
const numBuckets = 28

// Histogram is a fixed-bucket exponential latency histogram. Observe is a
// few atomic adds — cheap enough to leave on for every query in production.
type Histogram struct {
	count     atomic.Int64
	sumNanos  atomic.Int64
	buckets   [numBuckets]atomic.Int64
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// bucketBound returns the inclusive upper bound of bucket i in seconds;
// the last bucket is unbounded.
func bucketBound(i int) float64 {
	return float64(uint64(1)<<uint(i)) * 1e-6
}

// bucketIndex returns the bucket a duration falls into.
func bucketIndex(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	us := uint64(d.Microseconds())
	idx := 0
	if us > 1 {
		idx = bits.Len64(us - 1)
	}
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// Observe records one duration. No-op on a nil receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// Exemplar links one bucket of a histogram to a concrete trace: the most
// recent interesting observation in that latency range, so a p99 spike on
// a dashboard resolves to a stored span tree instead of a mystery.
type Exemplar struct {
	// TraceID is the hex trace ID of the exemplar observation.
	TraceID string `json:"trace_id"`
	// Value is the observed latency in seconds.
	Value float64 `json:"value"`
	// Time is when the observation was recorded.
	Time time.Time `json:"time"`
}

// SetExemplar attaches a trace exemplar to the bucket d falls into,
// without changing any count — callers Observe the duration separately,
// and only attach exemplars for traces that were actually retained so
// every exemplar resolves. No-op on a nil receiver or empty trace ID.
func (h *Histogram) SetExemplar(d time.Duration, traceID string) {
	if h == nil || traceID == "" {
		return
	}
	h.exemplars[bucketIndex(d)].Store(&Exemplar{
		TraceID: traceID,
		Value:   d.Seconds(),
		Time:    time.Now(),
	})
}

// HistSnapshot is a point-in-time copy of a histogram. Exemplars holds
// the latest per-bucket trace exemplar, nil where none was recorded.
type HistSnapshot struct {
	Count     int64
	Sum       time.Duration
	Buckets   [numBuckets]int64
	Exemplars [numBuckets]*Exemplar
}

// Snapshot copies the histogram's current state. The copy is not atomic
// across buckets, which is fine for monitoring: each bucket is internally
// consistent and the drift is at most the observations racing the read.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sumNanos.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Exemplars[i] = h.exemplars[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// inside the bucket containing the target rank. Returns 0 when empty.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if next >= rank {
			lo := 0.0
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if i == numBuckets-1 {
				hi = lo // unbounded overflow bucket: report its lower edge
			}
			frac := (rank - cum) / float64(b)
			return time.Duration((lo + (hi-lo)*frac) * float64(time.Second))
		}
		cum = next
	}
	return time.Duration(bucketBound(numBuckets-2) * float64(time.Second))
}

// SampleQuantile estimates the q-quantile of an ascending-sorted sample
// by linear interpolation between adjacent order statistics — the same
// interpolation HistSnapshot.Quantile applies inside a bucket, shared so
// every quantile this codebase reports (shard and replica-set p95s,
// histogram summaries) agrees on the estimator. Returns 0 when empty.
func SampleQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// Registry is a concurrency-safe set of named metrics. Series names may
// carry inline Prometheus-style labels (see L); the full string is the key.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	help       map[string]string // base name -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// SetHelp registers the HELP text emitted for a metric's base name in the
// Prometheus exposition. No-op on a nil registry.
func (r *Registry) SetHelp(base, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[base] = help
	r.mu.Unlock()
}

// SetHelps registers HELP texts in bulk; see SetHelp.
func (r *Registry) SetHelps(m map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for base, help := range m {
		r.help[base] = help
	}
	r.mu.Unlock()
}

// helpFor returns the registered HELP text for a base name, "" when none.
func (r *Registry) helpFor(base string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.help[base]
}

// escapeHelp escapes backslash and newline per the text-format spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// L formats a series name with label pairs:
// L("searches_total", "method", "CTS") → `searches_total{method="CTS"}`.
// Pairs must come key,value; a trailing odd key is ignored. Label values
// are escaped per the Prometheus text format (backslash, double quote and
// newline), so a value like `say "hi"` produces a series that the
// exposition can emit verbatim and ParseName can round-trip.
func L(name string, pairs ...string) string {
	if len(pairs) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline per the
// Prometheus text-format label-value rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// unescapeLabelValue reverses escapeLabelValue.
func unescapeLabelValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default: // \\ and \" unescape to the literal character
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// ParseName splits a series name into its base name and label map.
// Labels produced by L round-trip, including escaped quotes, backslashes,
// newlines, and values containing commas; malformed labels come back
// empty.
func ParseName(series string) (base string, labels map[string]string) {
	open := strings.IndexByte(series, '{')
	if open < 0 || !strings.HasSuffix(series, "}") {
		return series, nil
	}
	base = series[:open]
	labels = make(map[string]string)
	inner := series[open+1 : len(series)-1]
	for len(inner) > 0 {
		eq := strings.IndexByte(inner, '=')
		if eq < 0 {
			break
		}
		key := inner[:eq]
		rest := inner[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			// Unquoted value: take up to the next comma (legacy tolerance).
			end := strings.IndexByte(rest, ',')
			if end < 0 {
				labels[key] = rest
				break
			}
			labels[key] = rest[:end]
			inner = rest[end+1:]
			continue
		}
		// Quoted value: scan to the closing quote, honoring escapes.
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		labels[key] = unescapeLabelValue(rest[1:end])
		inner = strings.TrimPrefix(rest[end+1:], ",")
	}
	return base, labels
}

// Counter returns (creating if needed) the named counter; nil on a nil
// registry.
func (r *Registry) Counter(series string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[series]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[series]; ok {
		return c
	}
	c = &Counter{}
	r.counters[series] = c
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil
// registry.
func (r *Registry) Gauge(series string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[series]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[series]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[series] = g
	return g
}

// Histogram returns (creating if needed) the named histogram; nil on a nil
// registry.
func (r *Registry) Histogram(series string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.histograms[series]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[series]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[series] = h
	return h
}

// CounterRef is one counter series of a registry, resolved on first use
// and kept: a per-query caller pays an atomic load, not a label string and
// a registry lookup, and the series still enters the exposition only once
// something records to it, as with a lookup by name. A nil *CounterRef
// hands out the nil counter.
type CounterRef struct {
	reg    *Registry
	series string
	c      atomic.Pointer[Counter]
}

// CounterRef returns a ref to the named counter; nil on a nil registry.
// It creates no series.
func (r *Registry) CounterRef(series string) *CounterRef {
	if r == nil {
		return nil
	}
	return &CounterRef{reg: r, series: series}
}

// Get returns the ref's counter, creating the series on the first call.
func (c *CounterRef) Get() *Counter {
	if c == nil {
		return nil
	}
	if h := c.c.Load(); h != nil {
		return h
	}
	h := c.reg.Counter(c.series)
	c.c.Store(h)
	return h
}

// HistogramRef is CounterRef for a histogram series.
type HistogramRef struct {
	reg    *Registry
	series string
	h      atomic.Pointer[Histogram]
}

// HistogramRef returns a ref to the named histogram; nil on a nil
// registry. It creates no series.
func (r *Registry) HistogramRef(series string) *HistogramRef {
	if r == nil {
		return nil
	}
	return &HistogramRef{reg: r, series: series}
}

// Get returns the ref's histogram, creating the series on the first call.
func (h *HistogramRef) Get() *Histogram {
	if h == nil {
		return nil
	}
	if m := h.h.Load(); m != nil {
		return m
	}
	m := h.reg.Histogram(h.series)
	h.h.Store(m)
	return m
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistSnapshot
}

// Snapshot copies every metric. Safe on a nil registry (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by series name for stable output, with
// HELP lines for every metric whose help text was registered (SetHelp).
// Histograms render cumulative buckets with seconds-valued le bounds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the same exposition in OpenMetrics style:
// histogram bucket lines carry trace exemplars ("# {trace_id=...} v ts")
// where one was recorded, and the output ends with "# EOF". Serve it when
// the scraper negotiated application/openmetrics-text; the plain text
// format (WritePrometheus) stays exemplar-free because the 0.0.4 parser
// rejects exemplar syntax.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, exemplars bool) error {
	if r == nil {
		_, err := io.WriteString(w, "# metrics disabled\n")
		return err
	}
	snap := r.Snapshot()
	var b strings.Builder

	emitTyped := func(names []string, typ string, line func(series string)) {
		sort.Strings(names)
		lastBase := ""
		for _, series := range names {
			base, _ := ParseName(series)
			if base != lastBase {
				if help := r.helpFor(base); help != "" {
					fmt.Fprintf(&b, "# HELP %s %s\n", base, escapeHelp(help))
				}
				fmt.Fprintf(&b, "# TYPE %s %s\n", base, typ)
				lastBase = base
			}
			line(series)
		}
	}

	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	emitTyped(names, "counter", func(series string) {
		fmt.Fprintf(&b, "%s %d\n", series, snap.Counters[series])
	})

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	emitTyped(names, "gauge", func(series string) {
		fmt.Fprintf(&b, "%s %s\n", series, formatFloat(snap.Gauges[series]))
	})

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	emitTyped(names, "histogram", func(series string) {
		base, _ := ParseName(series)
		inner := labelInner(series)
		suffix := ""
		if inner != "" {
			suffix = "{" + strings.TrimSuffix(inner, ",") + "}"
		}
		h := snap.Histograms[series]
		var cum int64
		for i := 0; i < numBuckets; i++ {
			cum += h.Buckets[i]
			le := "+Inf"
			if i < numBuckets-1 {
				le = formatFloat(bucketBound(i))
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d", base, inner, le, cum)
			if ex := h.Exemplars[i]; exemplars && ex != nil {
				fmt.Fprintf(&b, " # {trace_id=%q} %s %.3f",
					ex.TraceID, formatFloat(ex.Value), float64(ex.Time.UnixMilli())/1e3)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", base, suffix, formatFloat(h.Sum.Seconds()))
		fmt.Fprintf(&b, "%s_count%s %d\n", base, suffix, h.Count)
	})

	if exemplars {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelInner returns the inner label string of a series with a trailing
// comma ("method=\"CTS\",") or "" when the series has no labels.
func labelInner(series string) string {
	open := strings.IndexByte(series, '{')
	if open < 0 || !strings.HasSuffix(series, "}") {
		return ""
	}
	inner := series[open+1 : len(series)-1]
	if inner == "" {
		return ""
	}
	return inner + ","
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
