package core

import (
	"testing"

	"semdisco/internal/obs"
	"semdisco/internal/segment"
)

// TestIndexHealthAllMethods: a graph holds one node per index point — a
// text for ANNS, a (cluster, text) pair for CTS — while Values stays the
// segment's value count.
func TestIndexHealthAllMethods(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, s := range searcherSet(t, emb) {
		hr, ok := s.(HealthReporter)
		if !ok {
			t.Fatalf("%s does not implement HealthReporter", s.Name())
		}
		h := hr.IndexHealth()
		if h.Method != s.Name() || h.Values != emb.NumValues() {
			t.Fatalf("%s health=%+v", s.Name(), h)
		}
		switch s.Name() {
		case "ExS":
			if h.Graph != nil || h.PQ != nil || h.Clusters != nil {
				t.Fatalf("ExS should report corpus shape only: %+v", h)
			}
		case "ANNS":
			if h.Graph == nil || h.Graph.Nodes != emb.NumTexts() {
				t.Fatalf("ANNS graph health=%+v", h.Graph)
			}
			if h.Graph.ReachableFraction != 1 {
				t.Fatalf("fresh ANNS graph reachable=%v", h.Graph.ReachableFraction)
			}
			if len(h.Graph.Layers) == 0 || h.Graph.Layers[0].Edges == 0 {
				t.Fatalf("ANNS layer stats=%+v", h.Graph.Layers)
			}
			if h.PQ == nil || h.PQ.Trained { // searcherSet disables PQ
				t.Fatalf("ANNS pq health=%+v", h.PQ)
			}
		case "CTS":
			if h.Graph != nil || h.PQ != nil {
				t.Fatalf("CTS keeps no graph or quantizer: %+v", h)
			}
			ch := h.Clusters
			if ch == nil || ch.Clusters == 0 || ch.MaxSize < ch.MinSize || ch.MeanSize <= 0 {
				t.Fatalf("CTS cluster health=%+v", ch)
			}
			if ch.MeanMedoidDrift < 0 || ch.MaxMedoidDrift < ch.MeanMedoidDrift {
				t.Fatalf("CTS drift=%+v", ch)
			}
		}
	}
}

// TestOpenLinksNoGraphBelowTheScanBound guards set-up against a health
// read that links graphs. Over a corpus whose every collection a default
// query scans, building ANNS (PQ off) and opening a segment store over it,
// which records the segment's drift baselines, links no graph row, so the
// hnsw_insert build gauge stays 0; a later IndexHealth links the graph and
// reports one point per text. CTS never links a graph: the gauge stays 0
// after IndexHealth too.
func TestOpenLinksNoGraphBelowTheScanBound(t *testing.T) {
	fed, model := covidFederation(t)
	for method, build := range storeBuilders() {
		if method == "ExS" {
			continue
		}
		emb := EmbedFederation(fed, model)
		emb.Obs = obs.NewRegistry()
		s, err := build(emb)
		if err != nil {
			t.Fatal(err)
		}
		st := NewSegmentStore(emb, s, SegmentStoreOptions{Build: build, Method: method})
		linkSeconds := emb.Obs.Gauge(obs.L(MetricBuildSeconds, "phase", "hnsw_insert"))
		if got := linkSeconds.Value(); got != 0 {
			t.Fatalf("%s: hnsw_insert %v s after Open, want 0", method, got)
		}
		h := st.IndexHealth()
		if method == "CTS" {
			if got := linkSeconds.Value(); got != 0 {
				t.Fatalf("CTS: hnsw_insert %v s after IndexHealth, want 0", got)
			}
			continue
		}
		if linkSeconds.Value() <= 0 {
			t.Fatalf("%s: IndexHealth linked no graph row", method)
		}
		if h.Graph == nil || h.Graph.Nodes != emb.NumTexts() {
			t.Fatalf("ANNS graph health %+v, want %d nodes", h.Graph, emb.NumTexts())
		}
	}
}

func TestIndexHealthPQDistortion(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	anns, err := NewANNS(emb, ANNSOptions{Seed: 1, PQTrainSize: 16, PQM: 16, PQK: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := anns.IndexHealth()
	if h.PQ == nil || !h.PQ.Trained {
		t.Fatalf("pq health=%+v", h.PQ)
	}
	d := h.PQ.Distortion
	if d.Samples == 0 || d.Mean <= 0 || d.Mean > d.P95 || d.P95 > d.Max {
		t.Fatalf("distortion=%+v", d)
	}
}

// TestMedoidDriftAfterDeletes: IndexHealth walks live values only, so
// tombstoning relations must shrink the reported cluster sizes and move
// the live centroids relative to the build-time medoids — the
// medoid-drift signal the compaction trigger turns into a re-clustering
// rebuild.
func TestMedoidDriftAfterDeletes(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	emb.Tombs = segment.NewTombstones()
	cts, err := NewCTS(emb, CTSOptions{Seed: 1, MinClusterSize: 4, UMAPEpochs: 60})
	if err != nil {
		t.Fatal(err)
	}
	before := cts.IndexHealth().Clusters
	// Tombstone every third relation — enough churn that at least one
	// cluster loses members.
	deleted := 0
	for i := 0; i < emb.NumRelations(); i += 3 {
		emb.Tombs.Mark(i)
		deleted++
	}
	if deleted == 0 {
		t.Fatal("nothing deleted")
	}
	after := cts.IndexHealth().Clusters
	if after.Clusters != before.Clusters {
		t.Fatalf("cluster count changed on delete: %d -> %d", before.Clusters, after.Clusters)
	}
	if after.MeanSize >= before.MeanSize {
		t.Fatalf("deletes not reflected in live sizes: before=%+v after=%+v", before, after)
	}
	if after.MeanMedoidDrift < 0 || after.MaxMedoidDrift < after.MeanMedoidDrift {
		t.Fatalf("inconsistent drift after deletes: %+v", after)
	}
	// Removing a third of the corpus must perturb the live centroids: the
	// drift reading has to move off the fresh-build baseline.
	if after.MeanMedoidDrift == before.MeanMedoidDrift {
		t.Fatalf("drift unchanged after deletes: before=%+v after=%+v", before, after)
	}
}

func TestProbeRecall(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	for _, s := range searcherSet(t, emb) {
		res, err := ProbeRecall(s, emb, []string{"COVID", "football stadium", "mineral hardness"}, 3, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Method != s.Name() || res.K != 3 {
			t.Fatalf("%s: result=%+v", s.Name(), res)
		}
		if res.Probed == 0 {
			t.Fatalf("%s: nothing probed", s.Name())
		}
		if res.Recall < 0 || res.Recall > 1 {
			t.Fatalf("%s: recall=%v out of [0,1]", s.Name(), res.Recall)
		}
		if s.Name() == "ExS" && res.Recall != 1 {
			t.Fatalf("ExS probed against itself must have recall 1, got %v", res.Recall)
		}
		for _, smp := range res.Samples {
			if smp.Recall < 0 || smp.Recall > 1 {
				t.Fatalf("%s: sample=%+v", s.Name(), smp)
			}
		}
	}
}

func TestProbeRecallEdgeCases(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	exs := NewExS(emb, ExSOptions{})
	if res, err := ProbeRecall(exs, emb, nil, 3, 0); err != nil || res.Probed != 0 {
		t.Fatalf("empty queries: res=%+v err=%v", res, err)
	}
	if res, err := ProbeRecall(exs, emb, []string{"COVID"}, 0, 0); err != nil || res.Probed != 0 {
		t.Fatalf("k=0: res=%+v err=%v", res, err)
	}
}

func TestSampleValueTexts(t *testing.T) {
	fed, model := covidFederation(t)
	emb := EmbedFederation(fed, model)
	sample := emb.SampleValueTexts(8)
	if len(sample) == 0 || len(sample) > 8 {
		t.Fatalf("sample=%v", sample)
	}
	for _, s := range sample {
		if s == "" {
			t.Fatal("empty text sampled")
		}
	}
	if got := emb.SampleValueTexts(0); got != nil {
		t.Fatalf("n=0 sample=%v", got)
	}
}
