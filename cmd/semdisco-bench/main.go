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
	)
	flag.Parse()

	if !*all && *tableNo == 0 && *figureNo == 0 && !*caseStudy && *dumpRuns == "" && !*storage && !*sweep && *jsonOut == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Reject a bad -table or -figure before the build, which takes minutes
	// at the default scale.
	if *tableNo < 0 || *tableNo > 4 {
		fmt.Fprintf(os.Stderr, "no table %d\n", *tableNo)
		os.Exit(2)
	}
	if *figureNo != 0 && *figureNo != 3 {
		fmt.Fprintf(os.Stderr, "no figure %d\n", *figureNo)
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
		if tn == 4 {
			emit(bench.RunTable4())
		} else {
			emit(bench.RunQualityTable(tn))
		}
	}
	if *all || *figureNo == 3 {
		emit(bench.RunFigure3())
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
