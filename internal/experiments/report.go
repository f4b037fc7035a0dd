package experiments

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"semdisco/internal/corpus"
	"semdisco/internal/par"
)

// MethodReport is one method's machine-readable benchmark result on the
// full (LD) partition.
type MethodReport struct {
	Method string `json:"method"`
	// BuildMS is the index-construction wall-clock cost (embedding time is
	// shared across methods and reported separately at the top level).
	BuildMS float64 `json:"build_ms"`
	// BuildBreakdownMS splits BuildMS into instrumented phases (pq_train,
	// hnsw_insert, umap, hdbscan). Absent for methods without instrumented
	// build stages (the baselines).
	BuildBreakdownMS map[string]float64 `json:"build_breakdown_ms,omitempty"`
	// Latency maps query class ("short", "moderate", "long") to timing.
	Latency map[string]LatencyJSON `json:"latency"`
	// Quality is measured on long queries, the paper's headline setting.
	Quality QualityJSON `json:"quality"`
}

// LatencyJSON is the per-class query timing of one method.
type LatencyJSON struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
}

// QualityJSON is the retrieval-quality summary of one method.
type QualityJSON struct {
	MAP     float64 `json:"map"`
	MRR     float64 `json:"mrr"`
	NDCG10  float64 `json:"ndcg_10"`
	NDCG20  float64 `json:"ndcg_20"`
	Queries int     `json:"queries"`
}

// Report is the machine-readable result set emitted by semdisco-bench
// -json: everything an external dashboard or regression checker needs
// without scraping the human-readable tables.
type Report struct {
	Corpus       string `json:"corpus"`
	NumRelations int    `json:"num_relations"`
	NumValues    int    `json:"num_values"`
	Dim          int    `json:"dim"`
	Seed         int64  `json:"seed"`
	// Workers is the resolved index-build worker count (Setup.Workers, with
	// 0 resolved to GOMAXPROCS); GOMAXPROCS records the machine context so
	// build timings can be compared across hosts.
	Workers    int            `json:"workers"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Methods    []MethodReport `json:"methods"`
}

// classes maps the report's JSON keys to the corpus query classes.
var classes = []struct {
	key   string
	class corpus.QueryClass
}{
	{"short", corpus.Short},
	{"moderate", corpus.Moderate},
	{"long", corpus.Long},
}

// Report measures every built method on the LD partition — build cost,
// per-class query latency, long-query quality — and returns the result as
// a serializable struct.
func (b *Bench) Report(k int) (*Report, error) {
	if k <= 0 {
		k = 20
	}
	sb := b.PerSize["LD"]
	r := &Report{
		Corpus:       b.Setup.Profile.Name,
		NumRelations: sb.Fed.Len(),
		NumValues:    sb.Emb.NumValues(),
		Dim:          b.Setup.Dim,
		Seed:         b.Setup.Seed,
		Workers:      par.Workers(b.Setup.Workers),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}
	for _, method := range Methods {
		if _, ok := sb.Searchers[method]; !ok {
			continue
		}
		mr := MethodReport{
			Method:  method,
			BuildMS: float64(sb.BuildTime[method]) / float64(time.Millisecond),
			Latency: make(map[string]LatencyJSON, len(classes)),
		}
		if breakdown := sb.BuildBreakdown[method]; len(breakdown) > 0 {
			mr.BuildBreakdownMS = make(map[string]float64, len(breakdown))
			for phase, d := range breakdown {
				mr.BuildBreakdownMS[phase] = float64(d) / float64(time.Millisecond)
			}
		}
		for _, c := range classes {
			cell, err := b.Latency(method, "LD", c.class, k)
			if err != nil {
				return nil, err
			}
			mr.Latency[c.key] = LatencyJSON{
				MeanMS: cell.MeanMS, P50MS: cell.P50MS, P95MS: cell.P95MS,
			}
		}
		qc, err := b.Quality(method, "LD", corpus.Long, k)
		if err != nil {
			return nil, err
		}
		mr.Quality = QualityJSON{
			MAP:     qc.Report.MAP,
			MRR:     qc.Report.MRR,
			NDCG10:  qc.Report.NDCG[10],
			NDCG20:  qc.Report.NDCG[20],
			Queries: qc.Report.Queries,
		}
		r.Methods = append(r.Methods, mr)
	}
	return r, nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
