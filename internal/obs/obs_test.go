package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("hits_total").Inc()
				reg.Counter(L("typed_total", "kind", "a")).Add(2)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits_total").Value(); got != workers*perWorker {
		t.Fatalf("hits_total = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Counter(L("typed_total", "kind", "a")).Value(); got != 2*workers*perWorker {
		t.Fatalf("typed_total = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("queue_depth")
	g.Set(3.5)
	g.Add(1.5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	// Exponential buckets bound the estimate by a factor of two of truth.
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.95, 950 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("q%.0f = %v, want within 2x of %v", c.q*100, got, c.want)
		}
	}
	if s.Quantile(1.0) < s.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramEmptyAndExtremes(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	h.Observe(-time.Second) // clamped to 0
	h.Observe(500 * time.Hour)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[numBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d", s.Buckets[numBuckets-1])
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("a").Inc()
	reg.Gauge("b").Set(1)
	reg.Histogram("c").Observe(time.Millisecond)
	if v := reg.Counter("a").Value(); v != 0 {
		t.Fatalf("nil counter = %d", v)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	var tr *Trace
	sp := tr.StartSpan("stage")
	sp.Annotate("k", "v").AnnotateInt("n", 3)
	if d := sp.End(); d < 0 {
		t.Fatalf("nil-trace span duration = %v", d)
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace spans = %v", got)
	}

	var nilSpan *Span
	nilSpan.Annotate("k", "v")
	if d := nilSpan.End(); d != 0 {
		t.Fatalf("nil span End = %v", d)
	}
}

// TestMetricRefs: a ref creates its series on first use, not when made,
// and always hands out the series a lookup by name would; a nil registry
// hands out nil refs whose metrics are no-ops.
func TestMetricRefs(t *testing.T) {
	reg := NewRegistry()
	c, h := reg.CounterRef(L("c", "k", "v")), reg.HistogramRef("h")
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Histograms) != 0 {
		t.Fatalf("refs created series before use: %+v", snap)
	}
	c.Get().Add(2)
	h.Get().Observe(time.Millisecond)
	if c.Get() != reg.Counter(`c{k="v"}`) || h.Get() != reg.Histogram("h") {
		t.Fatal("a ref resolved to another series than its name")
	}
	if v := reg.Counter(`c{k="v"}`).Value(); v != 2 {
		t.Fatalf("counter = %d, want 2", v)
	}

	var nilReg *Registry
	nc, nh := nilReg.CounterRef("c"), nilReg.HistogramRef("h")
	nc.Get().Inc()
	nh.Get().Observe(time.Millisecond)
	if nc != nil || nh != nil || nc.Get() != nil || nh.Get() != nil {
		t.Fatal("nil registry handed out live refs")
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	sp := tr.StartSpan("encode")
	time.Sleep(time.Millisecond)
	sp.AnnotateInt("tokens", 7)
	sp.End()
	tr.StartSpan("rank").End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[0].Name != "encode" || spans[1].Name != "rank" {
		t.Fatalf("span order: %+v", spans)
	}
	if spans[0].Duration < time.Millisecond {
		t.Fatalf("encode duration = %v", spans[0].Duration)
	}
	if spans[0].Annotations["tokens"] != "7" {
		t.Fatalf("annotations = %v", spans[0].Annotations)
	}
}

func TestLabelRoundTrip(t *testing.T) {
	series := L("searches_total", "method", "CTS", "stage", "descent")
	want := `searches_total{method="CTS",stage="descent"}`
	if series != want {
		t.Fatalf("L = %q", series)
	}
	base, labels := ParseName(series)
	if base != "searches_total" || labels["method"] != "CTS" || labels["stage"] != "descent" {
		t.Fatalf("ParseName = %q %v", base, labels)
	}
	base, labels = ParseName("plain")
	if base != "plain" || labels != nil {
		t.Fatalf("ParseName plain = %q %v", base, labels)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(L("searches_total", "method", "CTS")).Add(3)
	reg.Counter(L("searches_total", "method", "ExS")).Add(1)
	reg.Gauge("index_clusters").Set(12)
	reg.Histogram(L("search_seconds", "method", "CTS")).Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE searches_total counter",
		`searches_total{method="CTS"} 3`,
		`searches_total{method="ExS"} 1`,
		"# TYPE index_clusters gauge",
		"index_clusters 12",
		"# TYPE search_seconds histogram",
		`search_seconds_bucket{method="CTS",le="+Inf"} 1`,
		`search_seconds_count{method="CTS"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// TYPE headers must not repeat per label set.
	if strings.Count(out, "# TYPE searches_total counter") != 1 {
		t.Error("duplicated TYPE line")
	}

	var nilReg *Registry
	b.Reset()
	if err := nilReg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "disabled") {
		t.Errorf("nil registry output = %q", b.String())
	}
}
