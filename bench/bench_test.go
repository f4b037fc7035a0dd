package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose; must not be modified
	cases := []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {-5, 10}, {200, 50}}
	for _, c := range cases {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestInterdecileMeanIgnoresTheWildTenth(t *testing.T) {
	xs := []float64{1000, 4, 5, 6, 4, 5, 6, 4, 5, 0} // sorted: 0 4 4 4 5 5 5 6 6 1000
	if got := interdecileMean(xs); got != 4.875 {
		t.Errorf("interdecileMean = %v, want 4.875 (the mean of the middle eight)", got)
	}
	if xs[0] != 1000 {
		t.Errorf("interdecileMean sorted its input in place")
	}
	// A half-and-half mix of two modes: the median sits at a mode's edge and
	// jumps with one sample, the interdecile mean sits between the modes.
	mix := []float64{4, 4, 4, 4, 4, 8, 8, 8, 8, 8}
	if got := interdecileMean(mix); got != 6 {
		t.Errorf("interdecileMean of a 50/50 mix = %v, want 6", got)
	}
	if got := interdecileMean(nil); got != 0 {
		t.Errorf("interdecileMean of nothing = %v", got)
	}
}

// One wild round must not move a result reduced over rounds.
func TestOverRoundsIgnoresOneNoisyRound(t *testing.T) {
	quiet := [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	noisy := [][]float64{{1, 2, 3}, {100, 200, 300}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	if a, b := overRounds(quiet, pct(50)), overRounds(noisy, pct(50)); a != 2 || b != 2 {
		t.Errorf("over rounds: quiet %v, noisy %v, want 2 and 2", a, b)
	}
	if got := overRounds([][]float64{{1, 3}, nil, {5, 7}}, pct(100)); got != 5 {
		t.Errorf("empty rounds must be skipped: got %v, want 5", got)
	}
	if got := midmean([]float64{9, 1, 5, 4, 6}); got != 5 {
		t.Errorf("midmean = %v, want 5 (1 and 9 dropped)", got)
	}
	if got := midmean([]float64{2, 4}); got != 3 {
		t.Errorf("midmean of two = %v, want their mean", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles of powers of two = %v, %v; want 1.5, 12", q1, q3)
	}
}

// fakeClock is a clock only Sleep and the test advance; its n-th Sleep
// overshoots by stall.
type fakeClock struct {
	now     time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	c.now = c.now.Add(d)
	if c.sleeps == c.stallAt {
		c.now = c.now.Add(c.stall)
	}
}

// The open-loop pacer must time every op from when it was due — so a stall
// is charged to every op it delayed — and report its own lateness.
func TestPaceTimesFromDueTimeAndReportsLateness(t *testing.T) {
	const service = time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0), stallAt: 3, stall: 35 * time.Millisecond}
	start := clk.Now()
	due := schedule(8, 100) // every 10 ms
	var late, lat []time.Duration
	pace(clk, start, due, func(i int, l time.Duration) {
		late = append(late, l)
		clk.now = clk.now.Add(service) // the op runs
		lat = append(lat, clk.Now().Sub(start.Add(due[i])))
	})
	msOf := func(ds []time.Duration) []int {
		out := make([]int, len(ds))
		for i, d := range ds {
			out[i] = int(d / time.Millisecond)
		}
		return out
	}
	// Op 3 wakes 35 ms late; ops 4..6 were due during the stall and are sent
	// back to back, each late by what is left of it; op 7 is on time again.
	wantLate := []int{0, 0, 0, 35, 26, 17, 8, 0}
	wantLat := []int{1, 1, 1, 36, 27, 18, 9, 1}
	if got := msOf(late); !equalInts(got, wantLate) {
		t.Errorf("generator lateness = %v ms, want %v", got, wantLate)
	}
	if got := msOf(lat); !equalInts(got, wantLat) {
		t.Errorf("latency from due time = %v ms, want %v", got, wantLat)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSLORatioCountsFailuresAsMisses(t *testing.T) {
	samples := []openSample{{latMS: 1, ok: true}, {latMS: 9, ok: true}, {latMS: 1, ok: false}, {latMS: 5, ok: true}}
	if got := sloRatio(samples, 5); got != 0.5 {
		t.Errorf("sloRatio = %v, want 0.5: one slow and one failed op miss", got)
	}
}

// The yardstick must be the same work every time it runs, or scaling by it
// would add noise of its own.
func TestReferenceWorkIsFixed(t *testing.T) {
	r := newReference()
	r.sample()
	first := r.sum
	r.sum = 0
	r.sample()
	if r.sum != first {
		t.Errorf("two reference runs computed %v and %v", first, r.sum)
	}
	if len(r.seen) != 2 || r.seen[0] <= 0 || r.slowdown() <= 0 {
		t.Errorf("slowdowns recorded: %v", r.seen)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil || got != 200 {
		t.Errorf("parseVmHWM = %v, %v; want 200 MB", got, err)
	}
	for _, bad := range []string{"Name:\tbench\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestSelfTimesSumToTopSpan(t *testing.T) {
	dur := map[string]float64{"http": 1000, "handler": 820, "engine": 700, "embed": 40, "segstore": 610, "method": 600}
	parent := map[string]string{"http": "", "handler": "http", "engine": "handler", "embed": "engine", "segstore": "engine", "method": "segstore"}
	self := selfTimes(dur, parent)
	want := map[string]float64{"http": 180, "handler": 120, "engine": 50, "embed": 40, "segstore": 10, "method": 600}
	var sum float64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
		sum += self[name]
	}
	if math.Abs(sum-dur["http"]) > 0.01*dur["http"] {
		t.Errorf("self times sum to %v, the top span is %v", sum, dur["http"])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
}

// benchmarkJSON mirrors the contract's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec.go has %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in spec.go", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in spec.go", len(decl.EndToEnd), len(endToEnd))
	}
	var maxBound float64
	for i, d := range endToEnd {
		e := decl.EndToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, e, d)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		maxBound = math.Max(maxBound, e.Bound)
	}
	if decl.EndToEnd[0].Name != "setup_s" || decl.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be declared with the largest bound")
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in spec.go", len(decl.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := decl.PerLayer[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go has %+v", i, e, d)
		}
	}
}

// A real (tiny) run must report exactly the declared metrics: all of them,
// and nothing else, for both result kinds. The values are not checked —
// smoke numbers mean nothing — only the shape the driver parses.
func TestEmittedResultRoundTripsAgainstDeclaration(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // the traced run writes bench/out/ under the cwd
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })

	// One engine workload both ways, and the coordinator's own ladder.
	for name, kinds := range map[string][]bool{"exs-scan": {false, true}, "coord-fanout": {true}} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, traced := range kinds {
			res, errs, err := runWorkload(smokePlan(w), 7, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, res.Correct, res.Attempted, res.Failed, errs)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool                             `json:"correct"`
				Attempted *int                              `json:"attempted"`
				Failed    *int                              `json:"failed"`
				Metrics   map[string]map[string]interface{} `json:"metrics"`
			}
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if back.Correct == nil || back.Attempted == nil || back.Failed == nil {
				t.Errorf("%s traced=%v: result lacks one of correct/attempted/failed: %s", name, traced, raw)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			if len(back.Metrics) != len(decls) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(back.Metrics), len(decls))
			}
			for _, d := range decls {
				got, ok := back.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", name, traced, d.Name)
					continue
				}
				if _, isNum := got["value"].(float64); !isNum || got["unit"] != d.Unit || len(got) != 2 {
					t.Errorf("%s traced=%v: metric %s emitted as %v", name, traced, d.Name, got)
				}
			}
		}
		if _, err := os.Stat("bench/out/trace-" + name + ".jsonl"); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
}

func TestPlanScalesCountsWithSeconds(t *testing.T) {
	w := workloads[0]
	full, half := planFor(w, runSeconds), planFor(w, runSeconds/2)
	if full.LatOps != w.LatOps || full.WritesPerRound != writesPerRound {
		t.Errorf("plan at run_seconds changed the frozen counts: %+v", full)
	}
	if half.LatOps != (w.LatOps+1)/2 || half.WritesPerRound%3 != 0 {
		t.Errorf("plan at half length: %+v", half)
	}
	if p := planFor(w, 1); p.BatchBlocks < 1 || p.OpenOpsPerRound < 1 || p.WritesPerRound < 3 {
		t.Errorf("a one-second plan must keep every phase non-empty: %+v", p)
	}
}
