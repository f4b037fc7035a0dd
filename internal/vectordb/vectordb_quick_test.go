package vectordb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickInsertGetConsistency: whatever goes in comes back out — each
// stored vector's exact search finds its own row first, under the tag it
// was built with — and the row count is the input's.
func TestQuickInsertGetConsistency(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		rng := rand.New(rand.NewSource(seed))
		vecs, tags := randUnits(n, 6, rng)
		c, err := Build(CollectionConfig{Dim: 6, Seed: seed}, vecs, tags, nil)
		if err != nil || rowCount(c) != n {
			return false
		}
		for i, v := range vecs {
			hits, err := c.SearchExact(v, 1, nil)
			if err != nil || len(hits) != 1 || hits[0].Tag != int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
