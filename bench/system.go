package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"semdisco"
	"semdisco/internal/httpapi"
)

// Replica topology of the coord-fanout workload.
const (
	coordSets     = 2
	coordReplicas = 2
)

// system is one built system under test: its engines, its HTTP front and
// the loopback listeners serving them. All of it lives in this process —
// four server roles as four OS processes would fight the harness for the
// two cores.
type system struct {
	in *inputs
	// eng is the single engine of an engine workload; nil on coord-fanout.
	eng *semdisco.Engine
	// coord and shards are set on coord-fanout: shards[set][replica].
	coord     *semdisco.NetCoordinator
	shards    [][]*semdisco.Engine
	shardURLs [][]string
	// front is the public API server the client talks to, at url.
	front *httpapi.Server
	url   string

	servers []*http.Server
	serving sync.WaitGroup
}

// engineConfig is the configuration every engine and shard is built with:
// the defaults a user gets, except that index builds are serial (bit-
// identical for a seed) and the segment store never seals or compacts on
// its own (no background rebuild lands inside a timed phase).
func engineConfig(method semdisco.Method, in *inputs, seed int64) semdisco.Config {
	cfg := semdisco.Config{Method: method, Dim: dim, Seed: seed, Lexicon: in.corpus.Lexicon}
	cfg.ANNS.Build.Workers = 1
	cfg.CTS.Build.Workers = 1
	cfg.Segments.Manual = true
	cfg.Segments.MaxMutableValues = -1
	return cfg
}

// setUp generates the inputs, builds the workload's system through the
// public constructors, serves it on loopback listeners and returns once
// /healthz answers. The elapsed time of this function is setup_s.
func setUp(p plan, seed int64) (*system, error) {
	in, err := newInputs(p.Scale, seed, p.Rounds*p.WritesPerRound)
	if err != nil {
		return nil, err
	}
	s := &system{in: in}
	fed := in.corpus.Federation
	switch p.Method {
	case "ExS", "ANNS", "CTS":
		method := map[string]semdisco.Method{"ExS": semdisco.ExS, "ANNS": semdisco.ANNS, "CTS": semdisco.CTS}[p.Method]
		if s.eng, err = semdisco.Open(fed, engineConfig(method, in, seed)); err != nil {
			return nil, err
		}
		s.front = httpapi.New(s.eng)
	case "coord":
		cfg := engineConfig(semdisco.ExS, in, seed)
		s.shards = make([][]*semdisco.Engine, coordSets)
		s.shardURLs = make([][]string, coordSets)
		for set := 0; set < coordSets; set++ {
			for r := 0; r < coordReplicas; r++ {
				eng, err := semdisco.NewNetShard(fed, semdisco.NetShardConfig{Config: cfg, Sets: coordSets, Set: set})
				if err != nil {
					s.close()
					return nil, err
				}
				url, err := s.serve(httpapi.New(eng))
				if err != nil {
					s.close()
					return nil, err
				}
				s.shards[set] = append(s.shards[set], eng)
				s.shardURLs[set] = append(s.shardURLs[set], url)
			}
		}
		// Result cache and hedging stay at their defaults (off): a cache hit
		// would make the latency bimodal.
		if s.coord, err = semdisco.NewNetCoordinator(fed, s.shardURLs, semdisco.NetCoordinatorConfig{Config: cfg}); err != nil {
			s.close()
			return nil, err
		}
		s.front = httpapi.NewCoordinator(s.coord)
	default:
		return nil, fmt.Errorf("bench: unknown method %q", p.Method)
	}
	if s.url, err = s.serve(s.front); err != nil {
		s.close()
		return nil, err
	}
	if err := awaitHealthy(s.url); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// storeEngines lists the engines whose segment stores answer a search: the
// one engine, or one replica of each set on coord-fanout.
func (s *system) storeEngines() []*semdisco.Engine {
	if s.coord == nil {
		return []*semdisco.Engine{s.eng}
	}
	var out []*semdisco.Engine
	for _, set := range s.shards {
		out = append(out, set[0])
	}
	return out
}

// serve starts h on a fresh loopback port and returns its base URL.
func (s *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bench: listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("bench: serve %s: %v", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener and waits for the serve goroutines to exit.
func (s *system) close() {
	for _, srv := range s.servers {
		_ = srv.Close() // listeners are loopback and in-process; nothing to drain
	}
	s.serving.Wait()
	// The coordinator's shard clients use http.DefaultTransport; drop their
	// idle connections to the servers just closed.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// awaitHealthy polls /healthz until it answers 200.
func awaitHealthy(base string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("bench: %s/healthz never answered 200", base)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
