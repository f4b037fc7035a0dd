// Command bench is the repository's benchmark: four HTTP workloads, twelve
// end-to-end metrics each, and a traced ladder that attributes a query's
// time to layers. README.md in this directory explains what is measured,
// why, and what is left out.
//
//	go run ./bench -seed 7                 every workload, untraced then traced
//	go run ./bench -smoke                  tiny corpus, one round: does it still run?
//	go run ./bench -repeat 10              ten seeds per workload -> bench/NOISE.md
//	go run ./bench -workload exs-scan -seed 7 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through run.sh): one
// workload in this process, one JSON object as the last line of stdout.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() {
	log.SetFlags(0)
	var (
		name    = flag.String("workload", "", "measure this one workload in-process and print its JSON result; empty runs the suite")
		seed    = flag.Int64("seed", 7, "seed of the corpus, the query order and the write list")
		seconds = flag.Int("seconds", runSeconds, "length of the timed phases; op counts scale by seconds/"+strconv.Itoa(runSeconds))
		traced  = flag.Int("trace", 0, "1 climbs the ladder and reports the per-layer metrics instead of the end-to-end ones")
		smoke   = flag.Bool("smoke", false, "tenth-scale corpus, one round, one set-up: a pre-push sanity run whose numbers mean nothing")
		repeat  = flag.Int("repeat", 0, "run the suite on this many consecutive seeds and write bench/NOISE.md")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 {
		log.Fatalf("bench: -seconds %d outside 1..60", *seconds)
	}
	if *name == "" {
		if err := suite(*seed, *seconds, *smoke, *repeat); err != nil {
			log.Fatal(err)
		}
		return
	}

	w, ok := workloadByName(*name)
	if !ok {
		log.Fatalf("bench: unknown workload %q", *name)
	}
	// Two procs whatever the box has: the frozen op counts and rates were
	// sized for two, and runs must compare across machines of one class.
	runtime.GOMAXPROCS(2)
	p := planFor(w, *seconds)
	if *smoke {
		p = smokePlan(w)
	}
	res, errs, err := runWorkload(p, *seed, *traced == 1)
	if err != nil {
		log.Fatal(err) // no result line: the run measured nothing it can vouch for
	}
	for _, e := range errs {
		log.Printf("bench: %s: %s", w.Name, e)
	}
	out, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// child runs one workload in a fresh process — so peak RSS, heap shape and
// scheduler state never leak from one workload into the next — and parses
// the result from the last line of its stdout.
func child(w workload, seed int64, seconds int, traced, smoke bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds),
		"-smoke=" + strconv.FormatBool(smoke)}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("bench: %s printed no result (%v): %w", w.Name, runErr, err)
	}
	return res, nil
}
