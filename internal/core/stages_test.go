package core

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/segment"
)

// stageContract is each method's stages of a traced single query, in
// order, with their annotation keys.
var stageContract = map[string][]string{
	"ExS":  {"scan{relations,relations_verified,values_scanned}", "rank{matches}"},
	"ANNS": {"retrieve{ef,fanout,hits,scanned}", "rank{matches}"},
	"CTS":  {"medoid_match{clusters_selected,clusters_total}", "descent{hits,per_cluster_fanout,scanned}", "rank{matches}"},
}

// tracedStages runs fn under a fresh trace and a cost accumulator, as the
// engine runs every query, and renders its spans, root excluded, as
// name{sorted annotation keys}.
func tracedStages(t *testing.T, fn func(ctx context.Context) error) []string {
	t.Helper()
	tr := obs.NewTrace()
	if err := fn(obs.ContextWithCost(obs.ContextWithTrace(context.Background(), tr), &obs.Cost{})); err != nil {
		t.Fatal(err)
	}
	root := tr.RootID()
	var out []string
	for _, st := range tr.Spans() {
		if !root.IsZero() && st.SpanID == root {
			continue
		}
		keys := make([]string, 0, len(st.Annotations))
		for k := range st.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out = append(out, st.Name+"{"+strings.Join(keys, ",")+"}")
	}
	return out
}

// TestStageContract pins the stage spans: a traced single query records its
// method's stages with their annotation keys — in a churned store, every
// segment's stages and then segments{segments,matches} — and a traced batch
// records none.
func TestStageContract(t *testing.T) {
	model := embed.New(embed.Config{Dim: 64, Seed: 1})
	q := model.Encode("coral fish geology")
	qs := [][]float32{q, model.Encode("railway trains")}
	for method, build := range storeBuilders() {
		t.Run(method, func(t *testing.T) {
			st := newStore(t, method, build, churnFederation(16), model, SegmentStoreOptions{
				Policy: segment.Policy{MaxMutableValues: 1 << 20, MaxSegments: 100, MaxDeadFraction: -1},
			})
			check := func(label string, want []string) {
				t.Helper()
				got := tracedStages(t, func(ctx context.Context) error {
					_, err := st.SearchEncoded(ctx, q, 5)
					return err
				})
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s single query stages:\n got %v\nwant %v", label, got, want)
				}
				got = tracedStages(t, func(ctx context.Context) error {
					_, err := st.SearchEncodedBatch(ctx, qs, []int{5, 3}, nil)
					return err
				})
				if len(got) != 0 {
					t.Errorf("%s batch recorded stages %v", label, got)
				}
			}
			check("one segment", stageContract[method])

			if err := st.Add(newRelation("rel-16", "coral reef geology")); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("rel-01"); err != nil {
				t.Fatal(err)
			}
			var want []string
			want = append(want, stageContract[method]...)
			want = append(want, stageContract["ExS"]...) // the mutable segment's scan
			check("churned", append(want, "segments{matches,segments}"))
		})
	}
}
