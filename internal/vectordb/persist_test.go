package vectordb

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// encodeImage gob-encodes an image envelope the way Save does.
func encodeImage(t testing.TB, img image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedBase persists 20 points, one of them deleted, so the image
// carries no graph and Load leaves the rows to be linked by a first walk.
func malformedBase(t *testing.T, compressed bool) *persistedCollection {
	t.Helper()
	cfg := CollectionConfig{Dim: 8, Seed: 3}
	if compressed {
		cfg.PQ = &PQConfig{M: 2, K: 16, TrainSize: 16}
	}
	c, err := NewCollection(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if _, err := c.Insert(randUnit(8, rng), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Delete(4)
	if c.Stats().Compressed != compressed {
		t.Fatalf("compressed = %v, want %v", c.Stats().Compressed, compressed)
	}
	return c.persist()
}

// v1Image wraps p in the version-1 envelope, its tags turned back into the
// one-integer payloads that version wrote.
func v1Image(p *persistedCollection) image {
	p.Payloads = make([]map[string]string, len(p.Tags))
	for i, tag := range p.Tags {
		p.Payloads[i] = map[string]string{"vi": strconv.Itoa(int(tag))}
	}
	p.Tags = nil
	return image{Version: 1, Collections: map[string]*persistedCollection{"values": p}}
}

// TestLoadRejectsMalformedImages feeds Load images that contradict
// themselves; each must fail with an error. Before images were checked
// against themselves, Vectors truncated to 5 rows made the rebuild index
// past them and panic.
func TestLoadRejectsMalformedImages(t *testing.T) {
	for _, tc := range []struct {
		name       string
		compressed bool
		mutate     func(p *persistedCollection) image
	}{
		{"vectors truncated", false, func(p *persistedCollection) image {
			p.Vectors = p.Vectors[:5]
			return image{Version: 2, Collection: p}
		}},
		{"tags truncated", false, func(p *persistedCollection) image {
			p.Tags = p.Tags[:5]
			return image{Version: 2, Collection: p}
		}},
		{"code rows truncated", true, func(p *persistedCollection) image {
			p.Codes = p.Codes[:5]
			return image{Version: 2, Collection: p}
		}},
		{"slot with a vector and a code", true, func(p *persistedCollection) image {
			p.Vectors[2] = make([]float32, 8)
			return image{Version: 2, Collection: p}
		}},
		{"slot with neither", false, func(p *persistedCollection) image {
			p.Vectors[2] = nil
			return image{Version: 2, Collection: p}
		}},
		{"short vector", false, func(p *persistedCollection) image {
			p.Vectors[2] = p.Vectors[2][:7]
			return image{Version: 2, Collection: p}
		}},
		{"short code", true, func(p *persistedCollection) image {
			p.Codes[2] = p.Codes[2][:1]
			return image{Version: 2, Collection: p}
		}},
		{"code naming a centroid past K", true, func(p *persistedCollection) image {
			p.Codes[2] = []byte{0, 16}
			return image{Version: 2, Collection: p}
		}},
		{"codes without a quantizer", true, func(p *persistedCollection) image {
			p.PQBlob = nil
			return image{Version: 2, Collection: p}
		}},
		{"ids out of order", false, func(p *persistedCollection) image {
			p.IDs[2], p.IDs[3] = p.IDs[3], p.IDs[2]
			return image{Version: 2, Collection: p}
		}},
		{"duplicate id", false, func(p *persistedCollection) image {
			p.IDs[3] = p.IDs[2]
			return image{Version: 2, Collection: p}
		}},
		{"id not below NextID", false, func(p *persistedCollection) image {
			p.NextID = p.IDs[len(p.IDs)-1]
			return image{Version: 2, Collection: p}
		}},
		{"id space exhausted", false, func(p *persistedCollection) image {
			p.NextID = math.MaxUint64
			return image{Version: 2, Collection: p}
		}},
		{"M of one", false, func(p *persistedCollection) image {
			p.Cfg.M = 1
			return image{Version: 2, Collection: p}
		}},
		{"negative beam", false, func(p *persistedCollection) image {
			p.Cfg.EfSearch = -1
			return image{Version: 2, Collection: p}
		}},
		// Codes earlier versions saved for their L2 (1) and inner-product
		// (2) metrics, and one the package never had.
		{"L2 metric", false, func(p *persistedCollection) image {
			p.Cfg.Metric = 1
			return image{Version: 2, Collection: p}
		}},
		{"dot metric", false, func(p *persistedCollection) image {
			p.Cfg.Metric = 2
			return image{Version: 2, Collection: p}
		}},
		{"unknown metric", false, func(p *persistedCollection) image {
			p.Cfg.Metric = 3
			return image{Version: 2, Collection: p}
		}},
		{"no collection", false, func(p *persistedCollection) image {
			return image{Version: 2}
		}},
		{"unknown version", false, func(p *persistedCollection) image {
			return image{Version: 3, Collection: p}
		}},
		{"v1 with two collections", false, func(p *persistedCollection) image {
			img := v1Image(p)
			img.Collections["other"] = p
			return img
		}},
		{"v1 payloads truncated", false, func(p *persistedCollection) image {
			img := v1Image(p)
			p.Payloads = p.Payloads[:5]
			return img
		}},
		{"v1 payload with two fields", false, func(p *persistedCollection) image {
			img := v1Image(p)
			p.Payloads[2]["kind"] = "odd"
			return img
		}},
		{"v1 payload past int32", false, func(p *persistedCollection) image {
			img := v1Image(p)
			p.Payloads[2]["vi"] = "2147483648"
			return img
		}},
		{"v1 payload not an integer", false, func(p *persistedCollection) image {
			img := v1Image(p)
			p.Payloads[2]["vi"] = "odd"
			return img
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := encodeImage(t, tc.mutate(malformedBase(t, tc.compressed)))
			if c, err := Load(bytes.NewReader(data)); err == nil {
				t.Fatalf("loaded %d points from a malformed image", c.Len())
			}
		})
	}
}

// TestLoadV1TagsFromPayloads loads version-1 images, raw and compressed,
// whose payloads hold one integer each (and one empty payload): every hit
// carries the integer as its tag, the empty payload as tag 0.
func TestLoadV1TagsFromPayloads(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		p := malformedBase(t, compressed)
		img := v1Image(p)
		p.Payloads[0] = nil
		c, err := Load(bytes.NewReader(encodeImage(t, img)))
		if err != nil {
			t.Fatalf("compressed=%v: %v", compressed, err)
		}
		if c.Len() != 19 || c.Stats().Compressed != compressed {
			t.Fatalf("compressed=%v: %+v", compressed, c.Stats())
		}
		// Every id was tagged with itself; id 0 now by an empty payload.
		for slot, id := range c.ids {
			hits, err := c.SearchExact(c.vectorOf(int32(slot)), 3, nil)
			if err != nil || len(hits) != 3 {
				t.Fatalf("compressed=%v: %d hits, %v", compressed, len(hits), err)
			}
			for _, h := range hits {
				if h.Tag != int32(h.ID) {
					t.Fatalf("compressed=%v: point %d: hit %+v", compressed, id, h)
				}
			}
		}
	}
}

// FuzzLoad feeds Load arbitrary bytes. It must never panic, and an image it
// accepts must save and reload to a collection that answers searches the
// same way, bit for bit.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		c2, err := Load(&buf)
		if err != nil {
			t.Fatalf("a saved image does not reload: %v", err)
		}
		if c.Len() != c2.Len() {
			t.Fatalf("%d points reload as %d", c.Len(), c2.Len())
		}
		for slot := 0; slot < min(3, len(c.ids)); slot++ {
			q := c.vectorOf(int32(slot))
			a, errA := c.Search(q, 5, 0, nil)
			b, errB := c2.Search(q, 5, 0, nil)
			if (errA == nil) != (errB == nil) || len(a) != len(b) {
				t.Fatalf("query %d: %v, %v before; %v, %v after", slot, a, errA, b, errB)
			}
			for i := range a {
				if a[i].ID != b[i].ID || a[i].Tag != b[i].Tag || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
					t.Fatalf("query %d hit %d: %+v before, %+v after", slot, i, a[i], b[i])
				}
			}
		}
	})
}
