// Command semdisco-bench regenerates the paper's tables and figures on the
// synthetic corpora.
//
// Usage:
//
//	semdisco-bench -table 1          # Table 1: long-query quality
//	semdisco-bench -table 4          # Table 4: CTS vs ANNS latency
//	semdisco-bench -figure 3         # Figure 3: all-method latency
//	semdisco-bench -all              # everything
//	semdisco-bench -corpus edp -all  # on the EDP-like corpus
//
// -scale shrinks or grows the corpus; -train fits the trainable baselines
// on the tuning pair split first (slower, higher baseline quality).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"semdisco/internal/corpus"
	"semdisco/internal/experiments"
)

func main() {
	var (
		corpusName = flag.String("corpus", "wikitables", "corpus profile: wikitables or edp")
		tableNo    = flag.Int("table", 0, "regenerate table 1, 2, 3 or 4")
		figureNo   = flag.Int("figure", 0, "regenerate figure 3")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		scale      = flag.Float64("scale", 1.0, "corpus scale factor")
		dim        = flag.Int("dim", 768, "embedding dimensionality (the paper's is 768)")
		seed       = flag.Int64("seed", 7, "random seed")
		train      = flag.Bool("train", true, "fit trainable baselines on the tuning split")
		workers    = flag.Int("workers", 0, "index-build worker count; 0 = GOMAXPROCS, 1 = serial deterministic build")
		caseStudy  = flag.Bool("casestudy", false, "run the §5.3 qualitative comparison")
		dumpRuns   = flag.String("dump-runs", "", "write per-method TREC run files (LD, all classes) into this directory")
		storage    = flag.Bool("storage", false, "report index storage and build cost per method")
		sweep      = flag.Bool("sweep", false, "run the scaling sweep (builds the methods at several corpus scales)")
		jsonOut    = flag.String("json", "", `write machine-readable results (build time, latency quantiles, MAP/NDCG) to this file; "-" for stdout`)
		shards     = flag.Int("shards", 0, "also benchmark a sharded scatter-gather federation with this many shards (adds a per-shard breakdown to -json)")
		tracingOH  = flag.Bool("tracing-overhead", false, "also measure span-tree tracing overhead on ExS p50 (adds a tracing section to -json)")
		costOut    = flag.Bool("cost", false, "also report per-method cost-model numbers (distance comps per query) and accounting overhead (adds a cost section to -json)")
		churnOut   = flag.Bool("churn", false, "also benchmark the mutable segment store: write throughput, search latency under churn, compaction pause (adds a churn section to -json)")
		netOut     = flag.Bool("netcluster", false, "also benchmark the networked cluster: loopback shard servers behind a replicated coordinator, equivalence + tail latency under stragglers and a killed replica (adds a netcluster section to -json)")
		netSets    = flag.Int("netcluster-sets", 2, "replica-set count for -netcluster")
		netReps    = flag.Int("netcluster-replicas", 2, "replicas per set for -netcluster")
	)
	flag.Parse()

	if !*all && *tableNo == 0 && *figureNo == 0 && !*caseStudy && *dumpRuns == "" && !*storage && !*sweep && *jsonOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	var profile corpus.Profile
	switch *corpusName {
	case "wikitables":
		profile = corpus.WikiTables()
	case "edp":
		profile = corpus.EDP()
	default:
		fmt.Fprintf(os.Stderr, "unknown corpus %q\n", *corpusName)
		os.Exit(2)
	}
	profile = profile.Scaled(*scale)
	profile.Seed = *seed

	if *sweep {
		out, err := experiments.RunScalingSweep(profile, *dim, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
		if !*all && *tableNo == 0 && *figureNo == 0 && !*caseStudy && *dumpRuns == "" && !*storage && *jsonOut == "" {
			return
		}
	}

	fmt.Printf("building benchmark: corpus=%s relations=%d dim=%d train=%v\n",
		profile.Name, profile.NumRelations, *dim, *train)
	start := time.Now()
	bench, err := experiments.NewBench(experiments.Setup{
		Profile:        profile,
		Dim:            *dim,
		Seed:           *seed,
		TrainBaselines: *train,
		Workers:        *workers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "build failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("built in %v\n\n", time.Since(start).Round(time.Second))

	emit := func(out string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	tables := []int{}
	if *all {
		tables = []int{1, 2, 3, 4}
	} else if *tableNo != 0 {
		tables = []int{*tableNo}
	}
	for _, tn := range tables {
		switch tn {
		case 1, 2, 3:
			emit(bench.RunQualityTable(tn))
		case 4:
			emit(bench.RunTable4())
		default:
			fmt.Fprintf(os.Stderr, "no table %d\n", tn)
			os.Exit(2)
		}
	}
	if *all || *figureNo == 3 {
		emit(bench.RunFigure3())
	} else if *figureNo != 0 {
		fmt.Fprintf(os.Stderr, "no figure %d\n", *figureNo)
		os.Exit(2)
	}
	if *all || *caseStudy {
		q := bench.Corpus.QueriesOf(corpus.Moderate)[0]
		emit(bench.CaseStudy(q.Text, 5))
	}
	if *storage {
		emit(bench.RunStorageTable())
	}
	if *dumpRuns != "" {
		if err := os.MkdirAll(*dumpRuns, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		for _, method := range experiments.Methods {
			for _, class := range []corpus.QueryClass{corpus.Short, corpus.Moderate, corpus.Long} {
				name := fmt.Sprintf("%s-LD-%s.run", method, class)
				f, err := os.Create(filepath.Join(*dumpRuns, name))
				if err != nil {
					fmt.Fprintf(os.Stderr, "error: %v\n", err)
					os.Exit(1)
				}
				err = bench.WriteRun(f, method, "LD", class, 20)
				f.Close()
				if err != nil {
					fmt.Fprintf(os.Stderr, "error writing %s: %v\n", name, err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("wrote %d run files to %s\n", len(experiments.Methods)*3, *dumpRuns)
	}
	if *jsonOut != "" {
		report, err := bench.Report(20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if *shards > 0 {
			report.Cluster, err = bench.ClusterReport(*shards, 20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("sharded federation: %d shards, ExS-equivalent=%v\n",
				report.Cluster.Shards, report.Cluster.EquivalentToExS)
		}
		if *tracingOH {
			report.Tracing, err = bench.TracingReport(20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("tracing overhead: p50 %.3fms -> %.3fms (%.1f%%), %d traces kept\n",
				report.Tracing.BaselineP50MS, report.Tracing.TracedP50MS,
				report.Tracing.OverheadPct, report.Tracing.TracesKept)
		}
		if *costOut {
			report.Cost, err = bench.CostReport(20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			for _, mc := range report.Cost.Methods {
				fmt.Printf("cost %s: %.0f distance comps/query, %.0f hops, %.0f pq lookups\n",
					mc.Method, mc.MeanDistanceComps, mc.MeanHNSWHops, mc.MeanPQLookups)
			}
			fmt.Printf("cost accounting overhead: p50 %.3fms -> %.3fms (%.1f%%)\n",
				report.Cost.BaselineP50MS, report.Cost.AccountedP50MS, report.Cost.OverheadPct)
		}
		if *churnOut {
			report.Churn, err = bench.ChurnReport(20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			c := report.Churn
			fmt.Printf("churn: %d rels, %d deleted / %d updated / %d added (%.0f%% churn), %.0f write ops/s\n",
				c.Relations, c.Deleted, c.Updated, c.Added, c.ChurnFraction*100, c.WriteOpsPerSec)
			fmt.Printf("churn search p95: %.3fms quiet -> %.3fms under churn (%d samples); compaction pause %.1fms (%d seals, %d compactions), fresh-equivalent=%v\n",
				c.QuietLatency.P95MS, c.ChurnLatency.P95MS, c.ChurnSamples,
				c.CompactionPauseMS, c.Seals, c.Compactions, c.EquivalentToFresh)
		}
		if *netOut {
			report.Netcluster, err = bench.NetclusterReport(*netSets, *netReps, 20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			nr := report.Netcluster
			fmt.Printf("netcluster: %d sets x %d replicas, exs-equivalent=%v router-equivalent=%v\n",
				nr.Sets, nr.Replicas, nr.EquivalentToExS, nr.EquivalentToRouter)
			fmt.Printf("netcluster p99: %.3fms in-process -> %.3fms wire -> %.3fms straggler (%d hedges, %d retries)\n",
				nr.InProcess.P99MS, nr.Healthy.P99MS, nr.Straggler.P99MS,
				nr.StragglerHedges, nr.StragglerRetries)
			fmt.Printf("netcluster replica kill: %d/%d answered (degraded=%d), all_answered=%v\n",
				nr.KilledAnswered, nr.KilledQueries, nr.KilledDegraded, nr.AllAnswered)
		}
		var out io.Writer = os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			// Tee to stdout so CI logs carry the report the file records.
			out = io.MultiWriter(f, os.Stdout)
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		if *jsonOut != "-" {
			fmt.Printf("wrote JSON report to %s\n", *jsonOut)
		}
	}
}
