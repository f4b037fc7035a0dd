package vectordb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// TestQuickInsertGetConsistency: whatever goes in comes back out — the
// vector under its id, the tag on its hit — Len tracks live points, and
// deleted ids stay gone.
func TestQuickInsertGetConsistency(t *testing.T) {
	f := func(seed int64, nRaw, delRaw uint8) bool {
		n := int(nRaw)%60 + 1
		rng := rand.New(rand.NewSource(seed))
		c, err := NewCollection(CollectionConfig{Dim: 6, Seed: seed})
		if err != nil {
			return false
		}
		ids := make([]uint64, n)
		for i := 0; i < n; i++ {
			id, err := c.Insert(randUnit(6, rng), int32(i))
			if err != nil {
				return false
			}
			ids[i] = id
		}
		del := int(delRaw) % (n + 1)
		for i := 0; i < del; i++ {
			c.Delete(ids[i])
		}
		if c.Len() != n-del {
			return false
		}
		for i := del; i < n; i++ {
			v, ok := c.Vector(ids[i])
			if !ok {
				return false
			}
			hits, err := c.SearchExact(v, 1, nil)
			if err != nil || len(hits) != 1 || hits[0].ID != ids[i] || hits[0].Tag != int32(i) {
				return false
			}
		}
		for i := 0; i < del; i++ {
			if _, ok := c.Vector(ids[i]); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSearchNeverReturnsDeleted: approximate and exact search agree
// on never surfacing tombstoned points.
func TestQuickSearchNeverReturnsDeleted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, _ := NewCollection(CollectionConfig{Dim: 6, Seed: seed})
		n := 20 + rng.Intn(60)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i], _ = c.Insert(randUnit(6, rng), 0)
		}
		dead := map[uint64]struct{}{}
		for i := 0; i < n/3; i++ {
			victim := ids[rng.Intn(n)]
			c.Delete(victim)
			dead[victim] = struct{}{}
		}
		q := randUnit(6, rng)
		approx, err1 := c.Search(q, 10, 64, nil)
		walked, err2 := walkSearch(c, q, 10, 64, nil)
		exact, err3 := c.SearchExact(q, 10, nil)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for _, r := range slices.Concat(approx, walked, exact) {
			if _, isDead := dead[r.ID]; isDead {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
