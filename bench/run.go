package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// traceDir is where a traced run leaves its span files.
const traceDir = "bench/out"

// runWorkload measures one workload in this process. Untraced, it reports
// the end-to-end metrics; traced, it runs the same phases on one set-up,
// climbs the ladder around them and reports the per-layer metrics. errs
// lists what failed the correctness gate.
func runWorkload(p plan, seed int64, traced bool) (res result, errs []string, err error) {
	m := make(map[string]float64)
	t := &tally{}
	ref := newReference()

	// Set-up, several times over: setup_s is the median, and the last
	// system built is the one measured. A traced run reports no setup_s and
	// sets up once.
	nSetups := p.Setups
	if traced {
		nSetups = 1
	}
	var (
		sys    *system
		setupS []float64
	)
	for i := 0; i < nSetups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		ref.sample()
		start := time.Now()
		if sys, err = setUp(p, seed); err != nil {
			return res, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer sys.close()

	c := newClient(sys.url)
	defer c.close()
	in := sys.in
	cur := &cursor{n: len(in.pool)}

	_, warmOK, _ := closedLoop(1, p.WarmOps, searchOp(c, in, cur.take(p.WarmOps)))
	t.add("warm", counts{sent: p.WarmOps, ok: warmOK})

	phase := func(name string, cnt counts) {
		t.add(name, cnt)
		m[name+".sent"], m[name+".ok"], m[name+".failed"] = float64(cnt.sent), float64(cnt.ok), float64(cnt.failed())
	}

	// The four read-only phases run interleaved, one round of each in turn,
	// so a burst of interference a second or two long spoils one round of
	// every metric instead of most rounds of one; each metric is then the
	// midmean over its rounds. The reference is sampled between any two rounds.
	var (
		lat                             [][]float64
		open                            [][]openSample
		qps, batchQPS                   []float64
		latCnt, thrCnt, batchCnt, opCnt counts
		spent                           [4]time.Duration
	)
	timed := func(phase int, fn func()) {
		ref.sample()
		lap := time.Now()
		fn()
		spent[phase] += time.Since(lap)
	}
	for r := 0; r < p.Rounds; r++ {
		runtime.GC()
		timed(0, func() {
			l, _, cnt := searchRound(c, in, cur, 1, p.LatOps)
			lat = append(lat, l)
			latCnt.add(cnt)
		})
		timed(1, func() {
			_, q, cnt := searchRound(c, in, cur, maxConns, p.ThrOps)
			qps = append(qps, q)
			thrCnt.add(cnt)
		})
		timed(2, func() {
			q, cnt := batchRound(c, in, cur, p.BatchBlocks)
			batchQPS = append(batchQPS, q)
			batchCnt.add(cnt)
		})
		timed(3, func() {
			idx := cur.take(p.OpenOpsPerRound)
			o := openLoop(realClock{}, maxConns, schedule(len(idx), p.OpenRate), func(i int, buf *bytes.Buffer) bool {
				return c.ok(http.MethodPost, "/v1/search", in.searchBody[idx[i]], http.StatusOK, buf)
			})
			open = append(open, o)
			opCnt.add(openCounts(o))
		})
	}
	ref.sample()
	// Phase wall times go to stderr: they are how the frozen op counts in
	// spec.go are re-probed, not part of the result.
	log.Printf("bench: %s: lat %.2fs, thr %.2fs, batch %.2fs, open %.2fs over %d rounds", p.Name,
		spent[0].Seconds(), spent[1].Seconds(), spent[2].Seconds(), spent[3].Seconds(), p.Rounds)
	phase("lat", latCnt)
	phase("thr", thrCnt)
	phase("batch", batchCnt)
	phase("open", opCnt)

	m["ndcg_at_10"] = checkBefore(c, sys, p, seed, t)

	var lad *ladder
	if traced {
		if lad, err = newLadder(sys, c, p.LadderQueries); err != nil {
			return res, nil, err
		}
		if err = lad.readOnly(m); err != nil {
			return res, nil, err
		}
		lad.countsRepeat(t)
		if err = lad.methodDetail(m); err != nil {
			return res, nil, err
		}
		if sys.coord != nil {
			if err = lad.wireDetail(m); err != nil {
				return res, nil, err
			}
		}
		buildGauges(sys, m)
	}

	runtime.GC()
	ref.sample()
	mixed := mixedPhase(c, in, cur, p)
	ref.sample()
	phase("mixed_read", mixed.reads)
	phase("mixed_write", mixed.writes)

	checkAfter(c, sys, t)

	if traced {
		if err = lad.afterWrites(p, m); err != nil {
			return res, nil, err
		}
		if err = lad.tr.write(filepath.Join(traceDir, "trace-"+p.Name+".jsonl")); err != nil {
			return res, nil, err
		}
	}

	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return res, nil, err
	}
	m["ok_ratio"] = float64(t.attempted-t.failed) / float64(t.attempted)

	// Timings are reported in seed-box-when-quiet units: one slowdown for
	// the whole run, the median of every reference sample taken in it (the
	// box drifts over minutes, a run lasts seconds; a per-round factor would
	// only add the noise of a 40 ms measurement to each round).
	slow := ref.slowdown()
	m["ref.slowdown"] = slow
	m["setup_s"] = median(setupS) / slow
	m["lat_ms"] = overRounds(lat, interdecileMean) / slow
	m["p50_ms"], m["p90_ms"] = overRounds(lat, pct(50))/slow, overRounds(lat, pct(90))/slow
	m["p99_ms"] = percentile(flatten(lat), 99) / slow
	m["raw_lat_ms"], m["raw_qps"] = overRounds(lat, interdecileMean), midmean(qps)
	m["qps"] = midmean(qps) * slow
	m["batch_qps"] = midmean(batchQPS) * slow
	var (
		openLat   [][]float64
		slo, late []float64
	)
	for _, o := range open {
		openLat = append(openLat, latencies(o))
		// The limit is in seed-box milliseconds too: on a box running 20%
		// slow a request gets 20% longer to meet it.
		slo = append(slo, sloRatio(o, p.SLOms*slow))
		for _, s := range o {
			late = append(late, s.lateMS)
		}
	}
	m["open_lat_ms"] = overRounds(openLat, interdecileMean) / slow
	m["open_p50_ms"], m["open_p90_ms"] = overRounds(openLat, pct(50))/slow, overRounds(openLat, pct(90))/slow
	m["open_p99_ms"] = percentile(flatten(openLat), 99) / slow
	m["slo_ok_ratio"] = midmean(slo)
	m["gen_late_p99_ms"] = percentile(late, 99)
	m["mixed_lat_ms"] = overRounds(mixed.read, interdecileMean) / slow
	m["mixed_p50_ms"], m["mixed_p90_ms"] = overRounds(mixed.read, pct(50))/slow, overRounds(mixed.read, pct(90))/slow
	m["write_lat_ms"] = overRounds(mixed.write, interdecileMean) / slow
	m["write_p50_ms"] = overRounds(mixed.write, pct(50)) / slow

	decls := endToEnd
	if traced {
		decls = perLayer
	}
	res = result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]measurement, len(decls))}
	for _, d := range decls {
		res.Metrics[d.Name] = measurement{Value: m[d.Name], Unit: d.Unit}
	}
	if err := allDeclared(m); err != nil {
		return res, nil, err
	}
	return res, t.errs, nil
}

// allDeclared rejects a measured name that neither metric set declares: a
// typo would otherwise vanish silently.
func allDeclared(m map[string]float64) error {
	known := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var unknown []string
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("bench: measured but undeclared metrics: %v", unknown)
	}
	return nil
}
