package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// suite runs every workload, one fresh child process after another (never
// two at once: they would share the two cores), and prints every metric by
// name with its unit. With repeat > 0 it runs the untraced suite on that
// many consecutive seeds and writes the spread of each end-to-end metric
// to bench/NOISE.md instead of climbing the ladder.
func suite(seed int64, seconds int, smoke bool, repeat int) error {
	runs := repeat
	if runs < 1 {
		runs = 1
	}
	// values[workload][metric] collects one value per seed.
	values := make(map[string]map[string][]float64)
	incorrect := 0
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && repeat > 0 {
					continue
				}
				res, err := child(w, seed+int64(r), seconds, traced, smoke)
				if err != nil {
					return err
				}
				if !res.Correct {
					incorrect++
				}
				decls, kind := endToEnd, "end to end"
				if traced {
					decls, kind = perLayer, "per layer"
				}
				fmt.Printf("\n%s  seed %d  %s  correct=%v attempted=%d failed=%d\n", w.Name, seed+int64(r), kind, res.Correct, res.Attempted, res.Failed)
				for _, d := range decls {
					v, ok := res.Metrics[d.Name]
					if !ok {
						return fmt.Errorf("bench: %s did not report %s", w.Name, d.Name)
					}
					fmt.Printf("  %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
					if !traced {
						if values[w.Name] == nil {
							values[w.Name] = make(map[string][]float64)
						}
						values[w.Name][d.Name] = append(values[w.Name][d.Name], v.Value)
					}
				}
			}
		}
	}
	if repeat > 0 {
		path := filepath.Join("bench", "NOISE.md")
		if err := os.WriteFile(path, []byte(noiseReport(values, seed, repeat, seconds)), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	if incorrect > 0 {
		return fmt.Errorf("bench: %d runs failed the correctness gate", incorrect)
	}
	return nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spread in NOISE.md is the one the acceptance check takes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// declaredBounds reads each end-to-end metric's bound from BENCHMARK.json
// in the current directory; nil when the file is missing.
func declaredBounds() map[string]float64 {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(raw, &decl) != nil {
		return nil
	}
	out := make(map[string]float64, len(decl.EndToEnd))
	for _, e := range decl.EndToEnd {
		out[e.Name] = e.Bound
	}
	return out
}

// noiseReport renders the run-to-run spread of every workload × end-to-end
// metric over the repeated seeds.
func noiseReport(values map[string]map[string][]float64, seed int64, repeat, seconds int) string {
	bounds := declaredBounds()
	var b strings.Builder
	fmt.Fprintf(&b, "# Run-to-run noise of the end-to-end metrics\n\n")
	fmt.Fprintf(&b, "Written by `go run ./bench -repeat %d -seed %d -seconds %d`: one untraced run per workload\n", repeat, seed, seconds)
	fmt.Fprintf(&b, "on each of the seeds %d..%d, GOMAXPROCS=2. `iqr/median` is the distance between the\n", seed, seed+int64(repeat)-1)
	fmt.Fprintf(&b, "first and third quartile (Python's `statistics.quantiles(values, n=4)`) as a share of\n")
	fmt.Fprintf(&b, "the median — the spread the acceptance check takes; it must stay below the metric's\n")
	fmt.Fprintf(&b, "`bound` in BENCHMARK.json. Different seeds give different corpora, so this spread\n")
	fmt.Fprintf(&b, "includes the seed's effect. README.md (\"Noise and bounds\") says why the timing bounds\n")
	fmt.Fprintf(&b, "are as wide as they are.\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "\n## %s\n\n", w.Name)
		fmt.Fprintf(&b, "| metric | unit | min | median | max | range/median | iqr/median | bound |\n|---|---|---|---|---|---|---|---|\n")
		for _, d := range endToEnd {
			xs := values[w.Name][d.Name]
			if len(xs) == 0 {
				continue
			}
			lo, mid, hi := percentile(xs, 0), median(xs), percentile(xs, 100)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(&b, "| %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.2f%% | %.0f%% |\n",
				d.Name, d.Unit, lo, mid, hi, 100*(hi-lo)/mid, 100*(q3-q1)/mid, 100*bounds[d.Name])
		}
	}
	return b.String()
}
