package embed

import (
	"bytes"
	"encoding/gob"
)

// lexiconImage is the exported gob shadow of Lexicon.
type lexiconImage struct {
	Concepts map[string]int32
	Parents  map[int32]int32
	Next     int32
}

// GobEncode implements gob.GobEncoder: lexicons persist alongside the
// engines whose encoders they configure.
func (l *Lexicon) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(lexiconImage{
		Concepts: l.concepts,
		Parents:  l.parents,
		Next:     l.next,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The maps are made before decoding:
// gob sizes a nil map by the entry count the image claims, before reading
// a single entry, but fills a non-nil one as its entries arrive.
func (l *Lexicon) GobDecode(data []byte) error {
	img := lexiconImage{Concepts: make(map[string]int32), Parents: make(map[int32]int32)}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return err
	}
	l.concepts = img.Concepts
	l.parents = img.Parents
	l.next = img.Next
	return nil
}
