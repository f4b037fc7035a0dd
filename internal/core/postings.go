package core

// postings is the inverted list from index points to the values they stand
// for. Points come in groups — one for ANNS, one per cluster for CTS — and
// each group has one point per distinct text among its values: group g's
// points are first[g]..first[g+1], numbered by first occurrence in value
// order, and text[p] is point p's text. Point p's values are
// vals[off[p]:off[p+1]], in value order (CSR). So an index holds each text's
// vector once per group, while every value stays in exactly one
// posting and a hit list never counts a value twice. Postings are built
// with the index and never persisted, because an engine image rebuilds its
// index.
type postings struct {
	first []int
	text  []int32
	off   []int32
	vals  []int32
}

// newPostings builds e's postings over groups groups, groupOf[i] being
// value i's group; a nil groupOf puts every value in group 0.
func newPostings(e *Embedded, groupOf []int, groups int) *postings {
	members := make([][]int32, groups)
	for i := range e.Values {
		g := 0
		if groupOf != nil {
			g = groupOf[i]
		}
		members[g] = append(members[g], int32(i))
	}
	s := &postings{first: make([]int, groups+1)}
	pointOf := make([]int32, len(e.Values))
	// seen[t] is 1 + the last group that made a point of text t, and
	// point[t] that point.
	seen := make([]int, len(e.texts))
	point := make([]int32, len(e.texts))
	for g, vals := range members {
		for _, i := range vals {
			t := e.Values[i].Text
			if seen[t] != g+1 {
				seen[t], point[t] = g+1, int32(len(s.text))
				s.text = append(s.text, t)
			}
			pointOf[i] = point[t]
		}
		s.first[g+1] = len(s.text)
	}
	n := len(s.text)
	s.off = make([]int32, n+1)
	for _, p := range pointOf {
		s.off[p+1]++
	}
	for p := range n {
		s.off[p+1] += s.off[p]
	}
	next := append([]int32(nil), s.off[:n]...)
	s.vals = make([]int32, len(pointOf))
	for i, p := range pointOf {
		s.vals[next[p]] = int32(i)
		next[p]++
	}
	return s
}

// group returns group g's point vectors, e's vocabulary rows, and their
// tags, in point order: what the group's collection inserts.
func (s *postings) group(e *Embedded, g int) (vecs [][]float32, tags []int32) {
	lo, hi := s.first[g], s.first[g+1]
	vecs = make([][]float32, hi-lo)
	tags = make([]int32, hi-lo)
	for j := range vecs {
		vecs[j] = e.rows[s.text[lo+j]]
		tags[j] = int32(lo + j)
	}
	return vecs, tags
}

// of returns point p's values.
func (s *postings) of(p int32) []int32 { return s.vals[s.off[p]:s.off[p+1]] }
