package hnsw

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// blob assembles a v1 graph image by hand: the header fields, then each
// node as its per-layer neighbour lists.
func blob(m uint32, entry, maxLevel int32, numNodes uint32, nodes ...[][]int32) []byte {
	var b []byte
	put := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	put(hnswMagic)
	put(hnswVersion)
	put(m)
	put(50) // efConstruction
	put(7)  // seed, low word
	put(0)  // seed, high word
	put(uint32(entry))
	put(uint32(maxLevel))
	put(numNodes)
	for _, layers := range nodes {
		put(uint32(len(layers)))
		for _, layer := range layers {
			put(uint32(len(layer)))
			for _, nb := range layer {
				put(uint32(nb))
			}
		}
	}
	return b
}

// TestReadValidatesBlob walks Read through hand-built images: the header is
// a claim, and every count in it must be backed by bytes and by the bounds
// the in-memory layout relies on.
func TestReadValidatesBlob(t *testing.T) {
	pair := [][][]int32{{{1}, {1}}, {{0}, {0}}} // two nodes, both on layers 0 and 1
	wide := make([]int32, 9)                    // one more than 4·M at M = 2, all naming node 0
	for _, tc := range []struct {
		name string
		data []byte
		want string // substring of the error; "" = loads
	}{
		{"valid pair", blob(2, 0, 1, 2, pair...), ""},
		{"valid empty", blob(2, -1, -1, 0), ""},
		{"truncated header", blob(2, 0, 1, 2, pair...)[:30], "EOF"},
		{"truncated node", blob(2, 0, 1, 2, pair...)[:60], "EOF"},
		{"node count beyond the bytes", blob(2, 0, 1, 1<<30, pair...), "EOF"},
		{"node count over the cap", blob(2, 0, 1, 1<<30+1, pair...), "node count"},
		{"zero M", blob(0, 0, 1, 2, pair...), "corrupt M"},
		{"oversized M", blob(1<<16+1, 0, 1, 2, pair...), "corrupt M"},
		{"node with no layers", blob(2, 0, 0, 2, [][]int32{}, [][]int32{{0}}), "layer count 0"},
		{"node with 65 layers", blob(2, 0, 0, 2, make([][]int32, 65)), "layer count 65"},
		{"degree a concurrent build could leave", blob(2, 0, 0, 1, [][]int32{wide[:8]}), ""},
		{"layer-0 degree over 4M", blob(2, 0, 0, 1, [][]int32{wide}), "degree 9 on layer 0"},
		{"upper degree over 4M", blob(2, 0, 1, 1, [][]int32{{0}, wide}), "degree 9 on layer 1"},
		{"neighbor out of range", blob(2, 0, 0, 2, [][]int32{{2}}), "neighbor 2 out of range"},
		{"entry out of range", blob(2, 2, 1, 2, pair...), "entry point 2"},
		{"negative entry", blob(2, -1, 1, 2, pair...), "entry point -1"},
		{"empty graph with an entry", blob(2, 0, 0, 0), "empty graph"},
		{"max level above the entry's", blob(2, 0, 1<<31-1, 2, pair...), "max level"},
		{"max level below the entry's", blob(2, 0, 0, 2, pair...), "max level"},
	} {
		ix, err := Read(bytes.NewReader(tc.data), nil, nil)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: loaded %d nodes, want error containing %q", tc.name, ix.Len(), tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// readAllocBudget bounds what Read may allocate for an n-byte image,
// whatever its header claims. The dearest byte is an empty node's: 8 on the
// wire (a layer count and a degree) buy a 24-byte list header and a 24-byte
// slot in the node table, and regrowing that table by a quarter at a time
// allocates up to five times its final size in total. The rest is fixed
// set-up (the level RNG, one node's 64 list headers ahead of their bytes).
func readAllocBudget(n int) uint64 {
	return 64<<10 + 32*uint64(n)
}

// TestReadAllocationFollowsInput pins the fix for the 36-byte header that
// used to allocate a 2³⁰-entry node table before reading a single node.
func TestReadAllocationFollowsInput(t *testing.T) {
	data := blob(16, 0, 0, 1<<30, [][]int32{{}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(data), nil, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated image loaded")
	}
	if got, max := after.TotalAlloc-before.TotalAlloc, readAllocBudget(len(data)); got > max {
		t.Fatalf("Read allocated %d bytes for a %d-byte image, budget %d", got, len(data), max)
	}
}

// FuzzRead feeds Read arbitrary images: it must return an index or an
// error, never panic, allocate no more than the input's length justifies,
// and whatever it accepts must be walkable and must serialize back.
func FuzzRead(f *testing.F) {
	s := newStore(Config{M: 4, EfConstruction: 20, Seed: 3})
	for _, v := range randVecs(40, 4, 3) {
		s.add(v)
	}
	var buf bytes.Buffer
	if _, err := s.ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Add(blob(2, -1, -1, 0))
	f.Add(blob(2, 0, 1, 1<<30, [][]int32{{1}, {1}}, [][]int32{{0}, {0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := Read(bytes.NewReader(data), func(a, b int32) float32 { return 0 }, nil)
		runtime.ReadMemStats(&after)
		if got, max := after.TotalAlloc-before.TotalAlloc, readAllocBudget(len(data)); got > max {
			t.Fatalf("Read allocated %d bytes for a %d-byte image, budget %d", got, len(data), max)
		}
		if err != nil {
			return
		}
		ix.Search(func(id int32) float32 { return float32(id) }, 3, 8, nil)
		ix.Stats()
		if _, err := ix.WriteTo(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	})
}
