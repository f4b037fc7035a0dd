package hnsw

// LayerStats summarizes one layer of the graph: how many nodes occupy it,
// how many (directed) edges they carry, and the degree spread — the raw
// material for spotting under-connected regions that degrade recall.
type LayerStats struct {
	Level     int     `json:"level"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	MinDegree int     `json:"min_degree"`
	MaxDegree int     `json:"max_degree"`
	AvgDegree float64 `json:"avg_degree"`
}

// GraphStats is a point-in-time health snapshot of the whole index.
type GraphStats struct {
	Nodes    int `json:"nodes"`
	MaxLevel int `json:"max_level"`
	// EntryPoint is the id the descent starts from; -1 when empty.
	EntryPoint int32        `json:"entry_point"`
	Layers     []LayerStats `json:"layers,omitempty"`
	// ReachableFraction is the share of nodes reachable from the entry
	// point on layer 0 — the layer every node occupies and every search
	// terminates in. Anything below 1.0 means some items can never be
	// returned, a silent recall loss. An empty graph reports 1.
	ReachableFraction float64 `json:"reachable_fraction"`
}

// Stats walks the graph and reports its structural health. Cost is
// O(nodes + edges); safe to call concurrently with Search.
func (ix *Index) Stats() GraphStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	gs := GraphStats{
		Nodes:             len(ix.nodes),
		MaxLevel:          ix.maxLevel,
		EntryPoint:        ix.entry,
		ReachableFraction: 1,
	}
	if len(ix.nodes) == 0 {
		return gs
	}

	gs.Layers = make([]LayerStats, ix.maxLevel+1)
	for l := 0; l <= ix.maxLevel; l++ {
		ls := LayerStats{Level: l, MinDegree: -1}
		for _, layers := range ix.nodes {
			if l >= len(layers) {
				continue
			}
			deg := len(layers[l])
			ls.Nodes++
			ls.Edges += deg
			if ls.MinDegree < 0 || deg < ls.MinDegree {
				ls.MinDegree = deg
			}
			if deg > ls.MaxDegree {
				ls.MaxDegree = deg
			}
		}
		if ls.MinDegree < 0 {
			ls.MinDegree = 0
		}
		if ls.Nodes > 0 {
			ls.AvgDegree = float64(ls.Edges) / float64(ls.Nodes)
		}
		gs.Layers[l] = ls
	}

	// BFS over layer 0 from the entry point: layer 0 holds every node, so
	// this measures true retrievability.
	visited := make([]bool, len(ix.nodes))
	queue := []int32{ix.entry}
	visited[ix.entry] = true
	reached := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range ix.neighborsAt(cur, 0) {
			if !visited[n] {
				visited[n] = true
				reached++
				queue = append(queue, n)
			}
		}
	}
	gs.ReachableFraction = float64(reached) / float64(len(ix.nodes))
	return gs
}
