package semdisco

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"semdisco/internal/netcluster"
)

const (
	netTestSets     = 2
	netTestReplicas = 2
)

// netShardMux is a replica server: the internal search stream over the
// shard engine's encoded backend, plus the write routes the coordinator's
// replication fan-out targets — the same surface cmd/semdisco-serve mounts,
// minus the rest of the public API this test never calls. Closing the
// returned handler ends the streams it upgraded.
func netShardMux(eng *Engine) (http.Handler, *netcluster.ShardHandler) {
	mux := http.NewServeMux()
	sh := netcluster.NewShardHandler(eng.EncodedBackend(), nil, nil, eng.Dim())
	mux.Handle(netcluster.PathSearchStream, sh)
	writeErr := func(w http.ResponseWriter, status int, msg string) {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(netcluster.ErrorBody{Error: msg})
	}
	decode := func(w http.ResponseWriter, r *http.Request) (*Relation, bool) {
		var wr netcluster.Relation
		if err := json.NewDecoder(r.Body).Decode(&wr); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		return &Relation{ID: wr.ID, Source: wr.Source, PageTitle: wr.PageTitle,
			SectionTitle: wr.SectionTitle, Caption: wr.Caption,
			Columns: wr.Columns, Rows: wr.Rows}, true
	}
	mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		rel, ok := decode(w, r)
		if !ok {
			return
		}
		if err := eng.Add(rel); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("PUT /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
		rel, ok := decode(w, r)
		if !ok {
			return
		}
		if err := eng.Update(rel); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
		}
	})
	mux.HandleFunc("DELETE /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := eng.Delete(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
		}
	})
	return mux, sh
}

// shardServer is one replica's loopback server. Close kills it as ending
// its process would: httptest.Server.Close leaves upgraded connections
// open, so the replica's search streams are closed with it.
type shardServer struct {
	*httptest.Server
	streams *netcluster.ShardHandler
}

func (s *shardServer) Close() {
	s.Server.Close()
	s.streams.Close()
}

// serveShard serves a shard engine as one replica until the test ends.
func serveShard(tb testing.TB, eng *Engine) *shardServer {
	mux, sh := netShardMux(eng)
	srv := &shardServer{Server: httptest.NewServer(mux), streams: sh}
	tb.Cleanup(srv.Close)
	return srv
}

type netFixture struct {
	nc      *NetCoordinator
	single  *Engine
	inj     *netcluster.FaultInjector
	servers [][]*shardServer
	engines [][]*Engine
}

// newNetFixture stands up the networked deployment in-process: per
// replica its own shard engine (so writes replicate for real) behind a
// loopback server, a fault-injecting transport, a coordinator over the
// replica sets, and a single monolithic engine as the equivalence oracle.
func newNetFixture(t *testing.T, n int) *netFixture {
	t.Helper()
	return newNetFixtureOf(t, synthFederation(t, n))
}

// newNetFixtureOf is newNetFixture over a given federation.
func newNetFixtureOf(t *testing.T, fed *Federation) *netFixture {
	t.Helper()
	cfg := Config{Method: ExS, Dim: 64, Seed: 1}
	single, err := Open(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx := &netFixture{single: single, inj: netcluster.NewFaultInjector(nil)}
	replicaSets := make([][]string, netTestSets)
	for s := 0; s < netTestSets; s++ {
		var row []*shardServer
		var engs []*Engine
		for r := 0; r < netTestReplicas; r++ {
			eng, err := NewNetShard(fed, NetShardConfig{Config: cfg, Sets: netTestSets, Set: s})
			if err != nil {
				t.Fatal(err)
			}
			srv := serveShard(t, eng)
			row = append(row, srv)
			engs = append(engs, eng)
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
		fx.servers = append(fx.servers, row)
		fx.engines = append(fx.engines, engs)
	}
	nc, err := NewNetCoordinator(fed, replicaSets, NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
		Transport:      fx.inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.nc = nc
	return fx
}

// assertNetEquivalence runs the cluster acceptance matrix over the wire:
// the networked coordinator must return the same relation IDs, order and
// scores as the single engine, with no degradation.
func assertNetEquivalence(t *testing.T, fx *netFixture, label string) {
	t.Helper()
	for _, q := range []string{"abc", "bfd", "abc def", "xyz qrs", "mno"} {
		for _, k := range []int{1, 5, 10, 32} {
			want := oracleSearch(t, fx.single, q, k)
			res, err := fx.nc.SearchContext(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: networked search q=%q k=%d: %v", label, q, k, err)
			}
			if res.Degraded {
				t.Fatalf("%s: unexpected degradation q=%q k=%d: %v", label, q, k, res.ShardErrors)
			}
			if len(res.Matches) != len(want) {
				t.Fatalf("%s q=%q k=%d: %d matches, engine returned %d",
					label, q, k, len(res.Matches), len(want))
			}
			for i := range want {
				if res.Matches[i] != want[i] {
					t.Fatalf("%s q=%q k=%d match %d: networked %+v, engine %+v",
						label, q, k, i, res.Matches[i], want[i])
				}
			}
		}
	}
}

// TestNetCoordinatorTraceIsOneTree: the shard-side spans a coordinator
// grafts into its trace hang under the coordinator's own spans. In the
// stored trace of a query every span but the coordinator's root names a
// parent, and the parent is a span of the same tree.
func TestNetCoordinatorTraceIsOneTree(t *testing.T) {
	fx := newNetFixture(t, 48)
	var sets [][]string
	for _, row := range fx.servers {
		var urls []string
		for _, srv := range row {
			urls = append(urls, srv.URL)
		}
		sets = append(sets, urls)
	}
	nc, err := NewNetCoordinator(synthFederation(t, 48), sets, NetCoordinatorConfig{
		Config: Config{Method: ExS, Dim: 64, Seed: 1, Tracing: TracingConfig{HeadSampleEvery: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := nc.Do(context.Background(), Request{Query: "abc def", K: 5})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := nc.Traces().Get(resp.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", resp.TraceID)
	}
	ids := make(map[string]bool, len(st.Spans))
	for _, sp := range st.Spans {
		ids[sp.SpanID] = true
	}
	roots, shardRoots := 0, 0
	for _, sp := range st.Spans {
		if sp.Name == "shard_encoded_search" {
			shardRoots++
		}
		switch {
		case sp.ParentID == "":
			roots++
		case !ids[sp.ParentID]:
			t.Errorf("span %s (%s) names parent %s, which is not in the trace", sp.Name, sp.SpanID, sp.ParentID)
		}
	}
	if roots != 1 || shardRoots != netTestSets {
		t.Fatalf("%d parentless spans and %d shard roots in %d spans, want 1 and %d: %+v",
			roots, shardRoots, len(st.Spans), netTestSets, st.Spans)
	}
}

// TestNetShardPartitioning: every replica of a set builds the identical
// partition, partitions are disjoint, and together they cover the
// federation.
func TestNetShardPartitioning(t *testing.T) {
	fx := newNetFixture(t, 48)
	total := 0
	for s, engs := range fx.engines {
		n := engs[0].NumRelations()
		if n == 0 {
			t.Fatalf("set %d is empty", s)
		}
		for r, eng := range engs {
			if eng.NumRelations() != n {
				t.Fatalf("set %d replica %d holds %d relations, replica 0 holds %d",
					s, r, eng.NumRelations(), n)
			}
		}
		total += n
	}
	if total != 48 {
		t.Fatalf("partitions cover %d relations, want 48", total)
	}
	if fx.nc.NumSets() != netTestSets || fx.nc.NumRelations() != 48 {
		t.Fatalf("coordinator sees %d sets / %d relations", fx.nc.NumSets(), fx.nc.NumRelations())
	}
}

// TestNetCoordinatorRelationCounts: the coordinator's per-set relation
// counts in Stats start at what each set's shard engine holds, and a
// delete lowers the owning set's count by exactly one.
func TestNetCoordinatorRelationCounts(t *testing.T) {
	fx := newNetFixture(t, 48)
	counts := func() []int {
		var out []int
		for _, sh := range fx.nc.Stats().Router.Shards {
			out = append(out, sh.Relations)
		}
		return out
	}
	before := counts()
	if len(before) != netTestSets {
		t.Fatalf("stats report %d sets, want %d", len(before), netTestSets)
	}
	for s, engs := range fx.engines {
		if want := engs[0].NumRelations(); before[s] != want {
			t.Fatalf("set %d: stats count %d relations, its shard engine holds %d", s, before[s], want)
		}
	}
	id := synthFederation(t, 48).Relations()[0].ID
	owner := -1
	for s, engs := range fx.engines {
		if engs[0].Has(id) {
			owner = s
		}
	}
	if owner < 0 {
		t.Fatalf("no set holds %s", id)
	}
	if err := fx.nc.DeleteRelation(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	after := counts()
	for s := range after {
		want := before[s]
		if s == owner {
			want--
		}
		if after[s] != want {
			t.Errorf("set %d after deleting %s (owned by set %d): %d relations, want %d", s, id, owner, after[s], want)
		}
	}
}

// TestNetClusterExSEquivalence is the wire-level acceptance criterion: the
// networked deployment — coordinator, HTTP fan-out, replica failover, JSON
// round-trip — must be bit-identical to a single ExS engine.
func TestNetClusterExSEquivalence(t *testing.T) {
	fx := newNetFixture(t, 48)
	assertNetEquivalence(t, fx, "healthy")
}

// TestNetClusterExSTiesAtK: an ExS set is asked for exactly k, which is
// exact because each set ranks its relations by (score descending,
// insertion rank ascending), the global order restricted to the set. Here
// relations of identical content — equal scores — sit in both sets and
// straddle position k for every k from 1 to 5, so a set breaking ties any
// other way hands the merge the wrong tied relations. The coordinator must
// match the single engine healthy, after an update that moves a tied
// relation to the end of the merge order (and onto a second segment of
// its shard), and after a delete.
func TestNetClusterExSTiesAtK(t *testing.T) {
	tie := func(id string) *Relation {
		return &Relation{ID: id, Source: "src-tie", Columns: []string{"a", "b"},
			Rows: [][]string{{"abc", "def"}, {"ghi", "jkl"}}}
	}
	fed := NewFederation()
	var tied []string
	for i, r := range synthFederation(t, 24).Relations() {
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			id := fmt.Sprintf("tie-%02d", i)
			tied = append(tied, id)
			if err := fed.Add(tie(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ring, err := netcluster.NewRing(netTestSets, 0)
	if err != nil {
		t.Fatal(err)
	}
	perSet := make([]int, netTestSets)
	for _, id := range tied {
		perSet[ring.Owner(id)]++
	}
	for s, c := range perSet {
		if c < 2 {
			t.Fatalf("set %d owns %d of the %d tied relations; the test needs ties inside and across sets", s, c, len(tied))
		}
	}
	fx := newNetFixtureOf(t, fed)
	ctx := context.Background()
	check := func(label string) {
		t.Helper()
		for _, q := range []string{"abc def ghi jkl", "abc", "jkl mno"} {
			full := oracleSearch(t, fx.single, q, 8)
			if len(full) < 6 || full[0].Score != full[5].Score {
				t.Fatalf("%s q=%q: the top 6 do not tie: %+v", label, q, full)
			}
			for k := 1; k <= 5; k++ {
				want := oracleSearch(t, fx.single, q, k)
				res, err := fx.nc.SearchContext(ctx, q, k)
				if err != nil {
					t.Fatalf("%s q=%q k=%d: %v", label, q, k, err)
				}
				if res.Degraded || len(res.Matches) != len(want) {
					t.Fatalf("%s q=%q k=%d: %d matches (degraded %v), engine returned %d",
						label, q, k, len(res.Matches), res.Degraded, len(want))
				}
				for i := range want {
					if res.Matches[i] != want[i] {
						t.Fatalf("%s q=%q k=%d match %d: networked %+v, engine %+v",
							label, q, k, i, res.Matches[i], want[i])
					}
				}
			}
		}
	}
	check("healthy")

	// The first tied relation moves behind every other one in the merge
	// order: its shard now holds it in a mutable segment beside the base.
	if err := fx.nc.UpdateRelation(ctx, tie(tied[0])); err != nil {
		t.Fatal(err)
	}
	if err := fx.single.Update(tie(tied[0])); err != nil {
		t.Fatal(err)
	}
	check("after update")

	if err := fx.nc.DeleteRelation(ctx, tied[1]); err != nil {
		t.Fatal(err)
	}
	if err := fx.single.Delete(tied[1]); err != nil {
		t.Fatal(err)
	}
	check("after delete")
}

// TestNetClusterReplicaKill: with one replica of a set killed mid-run the
// coordinator must keep answering every query, bit-identically and without
// degradation — the set is still up via its survivor.
func TestNetClusterReplicaKill(t *testing.T) {
	fx := newNetFixture(t, 48)
	assertNetEquivalence(t, fx, "before kill")
	fx.servers[0][0].Close()
	assertNetEquivalence(t, fx, "after kill")
	// The failover is visible in the stats: the killed replica accumulated
	// errors, and the set recorded no full outage.
	st := fx.nc.Stats()
	if st.Groups[0].SetDown != 0 {
		t.Errorf("set 0 recorded %d full outages with a live survivor", st.Groups[0].SetDown)
	}
}

// TestNetClusterSetDownDegrades: a whole replica set unreachable degrades
// the answer to exactly the single-engine ranking filtered to the
// surviving partition — still correct, just partial.
func TestNetClusterSetDownDegrades(t *testing.T) {
	fx := newNetFixture(t, 48)
	for _, srv := range fx.servers[1] {
		srv.Close()
	}
	ring, err := netcluster.NewRing(netTestSets, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"abc", "xyz qrs"} {
		const k = 10
		res, err := fx.nc.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("degraded search must not error: %v", err)
		}
		if !res.Degraded {
			t.Fatal("want Degraded with set 1 down")
		}
		if len(res.ShardErrors) == 0 {
			t.Error("degraded result carries no shard errors")
		}
		full := oracleSearch(t, fx.single, q, 48)
		var want []Match
		for _, m := range full {
			if ring.Owner(m.RelationID) == 0 {
				want = append(want, m)
			}
			if len(want) == k {
				break
			}
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("q=%q: %d degraded matches, want %d", q, len(res.Matches), len(want))
		}
		for i := range want {
			if res.Matches[i] != want[i] {
				t.Fatalf("q=%q match %d: degraded %+v, want %+v", q, i, res.Matches[i], want[i])
			}
		}
	}
}

// TestNetClusterWritePath: Add, Update and Delete through the coordinator
// replicate to every replica of the owning set and keep the networked
// ranking bit-identical to a single engine receiving the same mutations.
func TestNetClusterWritePath(t *testing.T) {
	fx := newNetFixture(t, 48)
	ctx := context.Background()
	rel := &Relation{
		ID: "rel-new", Source: "src-9",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"abc", "def"}, {"mno", "xyz"}},
	}
	if err := fx.nc.Add(ctx, rel); err != nil {
		t.Fatalf("networked add: %v", err)
	}
	if err := fx.single.Add(rel); err != nil {
		t.Fatalf("engine add: %v", err)
	}
	if fx.nc.NumRelations() != 49 {
		t.Fatalf("coordinator sees %d relations after add, want 49", fx.nc.NumRelations())
	}
	assertNetEquivalence(t, fx, "after add")

	// A duplicate add fails on every replica of the owning set: a plain
	// error, not a partial write.
	if err := fx.nc.Add(ctx, rel); err == nil {
		t.Fatal("duplicate add must error")
	}

	upd := &Relation{
		ID: "rel-new", Source: "src-9",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"qrs", "bfd"}, {"abc", "mno"}},
	}
	if err := fx.nc.UpdateRelation(ctx, upd); err != nil {
		t.Fatalf("networked update: %v", err)
	}
	if err := fx.single.Update(upd); err != nil {
		t.Fatalf("engine update: %v", err)
	}
	assertNetEquivalence(t, fx, "after update")

	if err := fx.nc.DeleteRelation(ctx, "rel-new"); err != nil {
		t.Fatalf("networked delete: %v", err)
	}
	if err := fx.single.Delete("rel-new"); err != nil {
		t.Fatalf("engine delete: %v", err)
	}
	if fx.nc.NumRelations() != 48 {
		t.Fatalf("coordinator sees %d relations after delete, want 48", fx.nc.NumRelations())
	}
	assertNetEquivalence(t, fx, "after delete")

	if err := fx.nc.DeleteRelation(ctx, "rel-new"); err == nil {
		t.Fatal("deleting an unknown relation must error")
	}
}
