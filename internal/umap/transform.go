package umap

import "semdisco/internal/vec"

// Embedding couples the training data with its learned low-dimensional
// layout so that new points can be mapped into the same space — the
// counterpart of umap-learn's transform().
type Embedding struct {
	cfg    Config
	input  [][]float32
	output [][]float32
}

// FitModel runs Fit and retains what Transform needs. The input slice is
// referenced, not copied; callers must not mutate it afterwards.
func FitModel(points [][]float32, cfg Config) *Embedding {
	out := Fit(points, cfg)
	cfg.fill(len(points))
	return &Embedding{cfg: cfg, input: points, output: out}
}

// Coordinates returns the layout of the training points (aliased, read
// only).
func (e *Embedding) Coordinates() [][]float32 { return e.output }

// Len returns the number of embedded training points.
func (e *Embedding) Len() int { return len(e.input) }

// Transform maps a new point into the learned space: it is placed at the
// distance-weighted mean of its NNeighbors nearest training points'
// embeddings — the initialization umap-learn's transform uses (we skip
// the optional SGD refinement; for cluster assignment, which is what CTS
// needs, the initialization is what decides).
func (e *Embedding) Transform(p []float32) []float32 {
	k := e.cfg.NNeighbors
	if k > len(e.input) {
		k = len(e.input)
	}
	if k == 0 {
		return make([]float32, e.cfg.NComponents)
	}
	dists := make([]float32, len(e.input))
	for i, q := range e.input {
		dists[i] = vec.L2(p, q)
	}
	nearest := vec.NearestK(dists, k, -1, make([]vec.Neighbor, 0, k))

	out := make([]float32, e.cfg.NComponents)
	var totalW float32
	const eps = 1e-6
	for _, nb := range nearest {
		w := 1 / (nb.Dist + eps)
		vec.AddScaled(out, w, e.output[nb.ID])
		totalW += w
	}
	if totalW > 0 {
		vec.Scale(out, 1/totalW)
	}
	return out
}

// TransformAll maps a batch of points.
func (e *Embedding) TransformAll(points [][]float32) [][]float32 {
	out := make([][]float32, len(points))
	for i, p := range points {
		out[i] = e.Transform(p)
	}
	return out
}
