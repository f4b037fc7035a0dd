package experiments

import (
	"strings"
	"sync"
	"testing"

	"semdisco/internal/corpus"
	"semdisco/internal/eval"
)

// quickSetup keeps experiment tests fast: small corpus, small dim.
func quickSetup() Setup {
	p := corpus.WikiTables()
	p.NumRelations = 100
	p.NumTopics = 8
	p.QueriesPerClass = 4
	p.JudgedPerQuery = 16
	return Setup{Profile: p, Dim: 64, Seed: 1}
}

var (
	sharedBench     *Bench
	sharedBenchErr  error
	sharedBenchOnce sync.Once
)

// quickBench builds the shared benchmark once for the whole test package;
// tests only read from it.
func quickBench(t testing.TB) *Bench {
	t.Helper()
	sharedBenchOnce.Do(func() {
		sharedBench, sharedBenchErr = NewBench(quickSetup())
	})
	if sharedBenchErr != nil {
		t.Fatal(sharedBenchErr)
	}
	return sharedBench
}

func TestBenchBuildsAllMethodsAndSizes(t *testing.T) {
	b := quickBench(t)
	for _, size := range Sizes {
		sb, ok := b.PerSize[size]
		if !ok {
			t.Fatalf("size %s missing", size)
		}
		for _, m := range Methods {
			if _, ok := sb.Searchers[m]; !ok {
				t.Fatalf("%s/%s missing", size, m)
			}
		}
	}
	// Partitions must actually shrink.
	if b.PerSize["SD"].Fed.Len() >= b.PerSize["MD"].Fed.Len() ||
		b.PerSize["MD"].Fed.Len() >= b.PerSize["LD"].Fed.Len() {
		t.Fatalf("partition sizes not increasing: %d %d %d",
			b.PerSize["SD"].Fed.Len(), b.PerSize["MD"].Fed.Len(), b.PerSize["LD"].Fed.Len())
	}
}

// TestSkipMethods builds ExS alone: every other method is skipped, so
// the test costs one embedding pass per partition, not a second bench.
func TestSkipMethods(t *testing.T) {
	s := quickSetup()
	for _, m := range Methods {
		if m != "ExS" {
			s.SkipMethods = append(s.SkipMethods, m)
		}
	}
	b, err := NewBench(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range Sizes {
		got := b.PerSize[size].Searchers
		if _, ok := got["ExS"]; !ok || len(got) != 1 {
			t.Fatalf("%s: built %d methods despite the skips, ExS among them: %v", size, len(got), ok)
		}
	}
}

func TestQualityCells(t *testing.T) {
	b := quickBench(t)
	cell, err := b.Quality("ExS", "LD", corpus.Moderate, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Report.Queries == 0 {
		t.Fatal("no queries evaluated")
	}
	if cell.Report.MAP <= 0 || cell.Report.MAP > 1 {
		t.Fatalf("MAP=%v", cell.Report.MAP)
	}
	if _, err := b.Quality("nope", "LD", corpus.Short, 5); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestQualityTablesRender(t *testing.T) {
	b := quickBench(t)
	for tableNo := 1; tableNo <= 3; tableNo++ {
		out, err := b.RunQualityTable(tableNo)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"MAP", "NDCG@5", "SD", "MD", "LD", "CTS", "ExS"} {
			if !strings.Contains(out, want) {
				t.Fatalf("table %d output misses %q:\n%s", tableNo, want, out)
			}
		}
	}
	if _, err := b.RunQualityTable(9); err == nil {
		t.Fatal("bad table number must error")
	}
}

func TestLatency(t *testing.T) {
	b := quickBench(t)
	exs, err := b.Latency("ExS", "LD", corpus.Short, 20)
	if err != nil {
		t.Fatal(err)
	}
	if exs.MeanMS <= 0 {
		t.Fatalf("latency %v", exs.MeanMS)
	}
	cts, err := b.Latency("CTS", "LD", corpus.Short, 20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LD/short latency: ExS=%.2fms CTS=%.2fms", exs.MeanMS, cts.MeanMS)
}

func TestTable4AndFigure3Render(t *testing.T) {
	b := quickBench(t)
	t4, err := b.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4, "CTS") || !strings.Contains(t4, "ANNS") {
		t.Fatalf("table 4 malformed:\n%s", t4)
	}
	f3, err := b.RunFigure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods {
		if !strings.Contains(f3, m) {
			t.Fatalf("figure 3 misses %s:\n%s", m, f3)
		}
	}
}

func TestCaseStudy(t *testing.T) {
	b := quickBench(t)
	out, err := b.CaseStudy(b.Corpus.Queries[0].Text, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"ExS", "ANNS", "CTS"} {
		if !strings.Contains(out, m) {
			t.Fatalf("case study misses %s:\n%s", m, out)
		}
	}
}

func TestRestrictQrelsShrinks(t *testing.T) {
	b := quickBench(t)
	count := func(size string) int {
		n := 0
		for _, judged := range b.PerSize[size].Qrels {
			n += len(judged)
		}
		return n
	}
	if !(count("SD") < count("MD") && count("MD") < count("LD")) {
		t.Fatalf("restricted qrels not shrinking: %d %d %d",
			count("SD"), count("MD"), count("LD"))
	}
}

func TestCalibrateThreshold(t *testing.T) {
	b := quickBench(t)
	sb := b.PerSize["LD"]
	queries := map[string]string{}
	for _, q := range b.Corpus.Queries {
		queries[q.ID] = q.Text
	}
	h, f1, err := CalibrateThreshold(sb.Searchers["ExS"], queries, restrictQrels(b.Corpus.TrainQrels, sb.Fed), 30)
	if err != nil {
		t.Fatal(err)
	}
	if f1 <= 0 || f1 > 1 {
		t.Fatalf("F1=%v", f1)
	}
	if h <= -1 || h >= 1 {
		t.Fatalf("threshold %v outside cosine range", h)
	}
	t.Logf("calibrated h=%.4f F1=%.3f", h, f1)
	// Degenerate inputs.
	h0, f0, err := CalibrateThreshold(sb.Searchers["ExS"], nil, eval.Qrels{}, 10)
	if err != nil || h0 != 0 || f0 != 0 {
		t.Fatalf("empty calibration: %v %v %v", h0, f0, err)
	}
}

func TestQuerySubsets(t *testing.T) {
	b := quickBench(t)
	qs1 := b.Corpus.QueriesOfSubset(corpus.QS1)
	qs2 := b.Corpus.QueriesOfSubset(corpus.QS2)
	if len(qs1) == 0 || len(qs2) == 0 {
		t.Fatal("query subsets empty")
	}
	if len(qs1)+len(qs2) != len(b.Corpus.Queries) {
		t.Fatal("subsets do not partition the queries")
	}
	if corpus.QS1.String() != "QS-1" || corpus.QS2.String() != "QS-2" {
		t.Fatal("subset names wrong")
	}
}

func TestWriteRunRoundTrip(t *testing.T) {
	b := quickBench(t)
	var buf strings.Builder
	if err := b.WriteRun(&buf, "ExS", "LD", corpus.Moderate, 10); err != nil {
		t.Fatal(err)
	}
	run, err := eval.ParseRun(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(run) == 0 {
		t.Fatal("empty run")
	}
	for qid, docs := range run {
		if len(docs) == 0 || len(docs) > 10 {
			t.Fatalf("query %s has %d docs", qid, len(docs))
		}
	}
	if err := b.WriteRun(&buf, "nope", "LD", corpus.Short, 5); err == nil {
		t.Fatal("unknown method must error")
	}
}

func TestStorageTableRenders(t *testing.T) {
	b := quickBench(t)
	out, err := b.RunStorageTable()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ExS", "ANNS", "CTS", "vector bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("storage table misses %q:\n%s", want, out)
		}
	}
}
