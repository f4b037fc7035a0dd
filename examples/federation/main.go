// Federation-scale example: generate a synthetic multi-source corpus (the
// EDP-like profile), build all three engines over it, and compare their
// answers and latency on the same queries — a miniature of the paper's
// performance evaluation. A networked cluster then answers the same
// queries: two shard servers on loopback HTTP, each indexing the half of
// the federation the placement ring gives it, behind a coordinator that
// embeds each query once and merges the shards' answers. The merged ExS
// ranking is identical to the monolithic one, and with one shard server
// down the coordinator still answers, marked degraded. Run with:
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"semdisco"
	"semdisco/internal/corpus"
	"semdisco/internal/httpapi"
)

func main() {
	p := corpus.EDP()
	p.NumRelations = 150
	p.QueriesPerClass = 3
	c := corpus.Generate(p)
	fmt.Printf("federation: %d relations from sources %v\n",
		c.Federation.Len(), c.Federation.Sources())

	engines := map[semdisco.Method]*semdisco.Engine{}
	for _, m := range []semdisco.Method{semdisco.ExS, semdisco.ANNS, semdisco.CTS} {
		start := time.Now()
		eng, err := semdisco.Open(c.Federation, semdisco.Config{
			Method:  m,
			Dim:     256,
			Seed:    7,
			Lexicon: c.Lexicon,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("built %-4s index over %d values in %v\n",
			m, eng.NumValues(), time.Since(start).Round(time.Millisecond))
		engines[m] = eng
	}

	for _, q := range c.QueriesOf(corpus.Short) {
		fmt.Printf("\nquery %q (topic %d):\n", q.Text, q.Topic)
		for _, m := range []semdisco.Method{semdisco.ExS, semdisco.ANNS, semdisco.CTS} {
			start := time.Now()
			matches, err := engines[m].Search(q.Text, 5)
			if err != nil {
				log.Fatal(err)
			}
			elapsed := time.Since(start)
			hits := 0
			for _, match := range matches {
				if c.PrimaryTopic[match.RelationID] == q.Topic {
					hits++
				}
			}
			fmt.Printf("  %-4s %8v  on-topic %d/%d:", m, elapsed.Round(time.Microsecond), hits, len(matches))
			for _, match := range matches {
				fmt.Printf(" %s", match.RelationID)
			}
			fmt.Println()
		}
	}

	// The same federation, split over two shard servers behind a
	// coordinator: one shared encoder, concurrent fan-out over the wire,
	// deterministic merge. For ExS the federated ranking is identical to
	// the monolithic one.
	fmt.Println("\n--- networked federation (2 shard servers behind a coordinator) ---")
	cfg := semdisco.Config{Method: semdisco.ExS, Dim: 256, Seed: 7, Lexicon: c.Lexicon}
	const sets = 2
	var servers []*httptest.Server
	var apis []*httpapi.Server
	var replicaSets [][]string
	for set := 0; set < sets; set++ {
		shard, err := semdisco.NewNetShard(c.Federation, semdisco.NetShardConfig{Config: cfg, Sets: sets, Set: set})
		if err != nil {
			log.Fatal(err)
		}
		api := httpapi.New(shard)
		srv := httptest.NewServer(api)
		defer api.CloseStreams() // Close leaves the coordinator's search streams open
		defer srv.Close()
		servers, apis = append(servers, srv), append(apis, api)
		replicaSets = append(replicaSets, []string{srv.URL})
		fmt.Printf("shard server %d: %d relations\n", set, shard.NumRelations())
	}
	nc, err := semdisco.NewNetCoordinator(c.Federation, replicaSets, semdisco.NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range c.QueriesOf(corpus.Short) {
		start := time.Now()
		res, err := nc.Do(ctx, semdisco.Request{Query: q.Text, K: 5})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		mono, err := engines[semdisco.ExS].Search(q.Text, 5)
		if err != nil {
			log.Fatal(err)
		}
		identical := len(res.Matches) == len(mono)
		for i := range mono {
			if !identical || res.Matches[i] != mono[i] {
				identical = false
				break
			}
		}
		if !identical {
			log.Fatalf("query %q: the coordinator's ranking differs from the single ExS engine's", q.Text)
		}
		fmt.Printf("query %q: %v, degraded=%v, identical-to-monolithic-ExS=%v\n",
			q.Text, elapsed.Round(time.Microsecond), res.Degraded, identical)
	}

	// Take shard server 1 down — the listener and the search streams the
	// coordinator holds to it: its set has no replica left, so the
	// coordinator answers from set 0 alone and says so.
	servers[1].Close()
	apis[1].CloseStreams()
	q := c.QueriesOf(corpus.Short)[0].Text
	res, err := nc.Do(ctx, semdisco.Request{Query: q, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Degraded || len(res.ShardErrors) != 1 || res.ShardErrors[0].Shard != 1 {
		log.Fatalf("with set 1 down: degraded=%v shard errors %v, want set 1 reported", res.Degraded, res.ShardErrors)
	}
	fmt.Printf("\nwith shard server 1 down: degraded=%v, %d matches from set 0, failed set %d\n",
		res.Degraded, len(res.Matches), res.ShardErrors[0].Shard)

	fmt.Println("\nper-set health:")
	st := nc.Stats()
	for i, sh := range st.Router.Shards {
		fmt.Printf("  set %d: %d searches, %d errors, p95 %.3fms\n",
			i, sh.Searches, sh.Errors, sh.P95MS)
	}
}
