package vectordb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickInsertGetConsistency: whatever goes in comes back out — each
// stored vector's exact search finds its own row first, under the tag it
// was inserted with — and Len tracks the rows.
func TestQuickInsertGetConsistency(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%60 + 1
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCollection(CollectionConfig{Dim: 6, Seed: seed})
		if err != nil {
			return false
		}
		vecs := make([][]float32, n)
		for i := range vecs {
			vecs[i] = randUnit(6, rng)
			if err := insertOne(c, vecs[i], int32(i)); err != nil {
				return false
			}
		}
		if rowCount(c) != n {
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
