package semdisco

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// synthFederation builds n deterministic relations with overlapping
// vocabulary, enough for shard partitions to stay non-empty and score ties
// to occur.
func synthFederation(t testing.TB, n int) *Federation {
	t.Helper()
	fed := NewFederation()
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(i, j int) string {
		return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
	}
	for i := 0; i < n; i++ {
		r := &Relation{
			ID:      fmt.Sprintf("rel-%03d", i),
			Source:  fmt.Sprintf("src-%d", i%3),
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

func clusterCfg(shards int) ClusterConfig {
	return ClusterConfig{
		Config: Config{Method: ExS, Dim: 64, Seed: 1},
		Shards: shards,
	}
}

// TestClusterExSEquivalence is the acceptance criterion: a 4-shard ExS
// cluster must return the same relation IDs in the same order as a single
// ExS engine over the same federation — the merge's tie-breaking on global
// insertion order makes the rankings bit-identical.
func TestClusterExSEquivalence(t *testing.T) {
	fed := synthFederation(t, 32)
	eng, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, policy := range []ShardPolicy{ShardByHash, ShardRoundRobin} {
		cfg := clusterCfg(4)
		cfg.Policy = policy
		cl, err := NewCluster(fed, cfg)
		if err != nil {
			t.Fatalf("%v: new cluster: %v", policy, err)
		}
		for _, q := range []string{"abc", "bfd", "abc def", "xyz qrs", "mno"} {
			for _, k := range []int{1, 5, 10, 32} {
				want := oracleSearch(t, eng, q, k)
				res, err := cl.Search(q, k)
				if err != nil {
					t.Fatalf("%v: cluster search: %v", policy, err)
				}
				if res.Degraded {
					t.Fatalf("%v: unexpected degradation", policy)
				}
				if len(res.Matches) != len(want) {
					t.Fatalf("%v q=%q k=%d: %d matches, engine returned %d",
						policy, q, k, len(res.Matches), len(want))
				}
				for i := range want {
					if res.Matches[i] != want[i] {
						t.Errorf("%v q=%q k=%d match %d: cluster %+v, engine %+v",
							policy, q, k, i, res.Matches[i], want[i])
					}
				}
			}
		}
	}
}

// parentEnvelope re-encodes a saved cluster the way the commit before the
// one attempt policy wrote it: the same envelope plus the two hedge tuning
// values ClusterConfig no longer has. gob matches fields by name, so a
// struct type assembled from today's fields and the two dropped ones is
// that format.
func parentEnvelope(t *testing.T, blob []byte) []byte {
	t.Helper()
	var p clusterPersist
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&p); err != nil {
		t.Fatal(err)
	}
	cur := reflect.ValueOf(p)
	var fields []reflect.StructField
	for i := 0; i < cur.NumField(); i++ {
		fields = append(fields, cur.Type().Field(i))
	}
	fields = append(fields,
		reflect.StructField{Name: "MinHedgeDelay", Type: reflect.TypeOf(time.Duration(0))},
		reflect.StructField{Name: "HedgeAfter", Type: reflect.TypeOf(0)})
	old := reflect.New(reflect.StructOf(fields)).Elem()
	for i := 0; i < cur.NumField(); i++ {
		old.Field(i).Set(cur.Field(i))
	}
	old.FieldByName("MinHedgeDelay").SetInt(int64(3 * time.Millisecond))
	old.FieldByName("HedgeAfter").SetInt(32)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(old); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterPersistRoundTrip is satellite 3: Save/Load must restore shard
// assignment and produce identical search results — from a blob saved now
// and from one in the parent commit's format, whose extra fields load as
// if absent.
func TestClusterPersistRoundTrip(t *testing.T) {
	fed := synthFederation(t, 24)
	cfg := clusterCfg(3)
	cfg.CacheSize = 8
	cfg.Hedge = true
	cl, err := NewCluster(fed, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	var buf bytes.Buffer
	if err := cl.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	for name, blob := range map[string][]byte{"current": buf.Bytes(), "parent format": parentEnvelope(t, buf.Bytes())} {
		restored, err := LoadCluster(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if restored.NumShards() != cl.NumShards() {
			t.Fatalf("%s: shards: %d vs %d", name, restored.NumShards(), cl.NumShards())
		}
		if restored.NumRelations() != cl.NumRelations() {
			t.Fatalf("%s: relations: %d vs %d", name, restored.NumRelations(), cl.NumRelations())
		}
		if !restored.cfg.Hedge || restored.cfg.CacheSize != 8 {
			t.Errorf("%s: router settings lost: %+v", name, restored.cfg)
		}
		// Shard assignment survives: per-shard relation counts match.
		before, after := cl.Stats(), restored.Stats()
		for i := range before.Shards {
			if before.Shards[i].Relations != after.Shards[i].Relations {
				t.Errorf("%s: shard %d relations: %d vs %d",
					name, i, before.Shards[i].Relations, after.Shards[i].Relations)
			}
		}
		for _, q := range []string{"abc", "def ghi", "mno"} {
			want, err := cl.Search(q, 10)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			got, err := restored.Search(q, 10)
			if err != nil {
				t.Fatalf("%s: restored search: %v", name, err)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("%s: q=%q: %d vs %d matches", name, q, len(got.Matches), len(want.Matches))
			}
			for i := range want.Matches {
				if got.Matches[i] != want.Matches[i] {
					t.Errorf("%s: q=%q match %d: %+v vs %+v", name, q, i, got.Matches[i], want.Matches[i])
				}
			}
		}
	}
}

// TestClusterAddEquivalence verifies incremental adds keep the federated
// ranking aligned with a single engine receiving the same adds.
func TestClusterAddEquivalence(t *testing.T) {
	fed := synthFederation(t, 16)
	eng, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cl, err := NewCluster(fed, clusterCfg(4))
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	extra := &Relation{
		ID:      "rel-new",
		Source:  "src-x",
		Columns: []string{"a"},
		Rows:    [][]string{{"abc"}, {"def"}},
	}
	if err := eng.Add(extra); err != nil {
		t.Fatalf("engine add: %v", err)
	}
	if err := cl.AddRelation(context.Background(), extra); err != nil {
		t.Fatalf("cluster add: %v", err)
	}
	if err := cl.AddRelation(context.Background(), extra); err == nil {
		t.Fatal("duplicate add must fail")
	}
	want := oracleSearch(t, eng, "abc def", 10)
	res, err := cl.Search("abc def", 10)
	if err != nil {
		t.Fatalf("cluster search: %v", err)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("%d vs %d matches", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Errorf("match %d: %+v vs %+v", i, res.Matches[i], want[i])
		}
	}
}

func TestClusterCacheAndStats(t *testing.T) {
	fed := synthFederation(t, 12)
	cfg := clusterCfg(2)
	cfg.CacheSize = 8
	cl, err := NewCluster(fed, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	if res, err := cl.Search("abc", 5); err != nil || res.CacheHit {
		t.Fatalf("first search: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	if res, err := cl.Search("abc", 5); err != nil || !res.CacheHit {
		t.Fatalf("second search should hit cache: err=%v", err)
	}
	st := cl.Stats()
	if st.CacheHits != 1 || st.Searches != 2 {
		t.Errorf("stats: hits=%d searches=%d, want 1, 2", st.CacheHits, st.Searches)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shard stats: %d entries", len(st.Shards))
	}
	if st.Shards[0].Searches == 0 && st.Shards[1].Searches == 0 {
		t.Error("no shard recorded a search")
	}
}

func TestClusterTracedStages(t *testing.T) {
	fed := synthFederation(t, 12)
	cfg := clusterCfg(2)
	cfg.Tracing = TracingConfig{HeadSampleEvery: 1}
	cl, err := NewCluster(fed, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	resp, err := cl.Do(context.Background(), Request{Query: "abc", K: 5})
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	st, ok := cl.Traces().Get(resp.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", resp.TraceID)
	}
	wantStages(t, st, "encode", "scatter", "merge")
}

func TestClusterSearchContextCancelled(t *testing.T) {
	fed := synthFederation(t, 12)
	cl, err := NewCluster(fed, clusterCfg(2))
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Do(ctx, Request{Query: "abc", K: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, clusterCfg(2)); err == nil {
		t.Error("nil federation must fail")
	}
	fed := synthFederation(t, 3)
	if _, err := NewCluster(fed, clusterCfg(8)); err == nil {
		t.Error("more shards than relations must fail")
	}
	// CTS and ANNS shards build too.
	big := synthFederation(t, 24)
	for _, m := range []Method{ANNS, CTS} {
		cfg := ClusterConfig{Config: Config{Method: m, Dim: 32, Seed: 1}, Shards: 2, Policy: ShardRoundRobin}
		cl, err := NewCluster(big, cfg)
		if err != nil {
			t.Fatalf("%v cluster: %v", m, err)
		}
		res, err := cl.Search("abc def", 5)
		if err != nil {
			t.Fatalf("%v search: %v", m, err)
		}
		if len(res.Matches) == 0 {
			t.Errorf("%v returned no matches", m)
		}
	}
}
