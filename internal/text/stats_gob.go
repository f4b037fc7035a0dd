package text

import (
	"bytes"
	"encoding/gob"
)

// statsImage is the exported gob shadow of CorpusStats.
type statsImage struct {
	DocCount  int
	DocFreq   map[string]int
	TermCount map[string]int64
	TotalLen  int64
}

// GobEncode implements gob.GobEncoder so corpus statistics can persist
// alongside the engines that depend on them for IDF weighting.
func (c *CorpusStats) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(statsImage{
		DocCount:  c.docCount,
		DocFreq:   c.docFreq,
		TermCount: c.termCount,
		TotalLen:  c.totalLen,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder. The maps are made before decoding:
// gob sizes a nil map by the entry count the image claims, before reading
// a single entry, but fills a non-nil one as its entries arrive.
func (c *CorpusStats) GobDecode(data []byte) error {
	img := statsImage{DocFreq: make(map[string]int), TermCount: make(map[string]int64)}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return err
	}
	c.docCount = img.DocCount
	c.docFreq = img.DocFreq
	c.termCount = img.TermCount
	c.totalLen = img.TotalLen
	return nil
}
