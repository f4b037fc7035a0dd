package semdisco

import (
	"io"

	"semdisco/internal/core"
	"semdisco/internal/embed"
	"semdisco/internal/table"
	"semdisco/internal/text"
)

// The data-model and encoder-configuration types are defined in internal
// packages and re-exported here as aliases, so the public surface of the
// module is exactly this package.

// Relation is a table: header, rows, and contextual fields (page title,
// section title, caption).
type Relation = table.Relation

// Attribute is one named cell value.
type Attribute = table.Attribute

// Tuple is one row as a sequence of attributes.
type Tuple = table.Tuple

// Federation is a collection of relations from multiple sources.
type Federation = table.Federation

// Lexicon maps terms to concepts (synonym sets) and is the way domain
// knowledge enters the encoder: terms registered under one concept embed
// near each other regardless of surface form.
type Lexicon = embed.Lexicon

// ExSOptions tunes the exhaustive searcher (threshold, parallel scan).
type ExSOptions = core.ExSOptions

// ANNSOptions tunes the vector-database searcher (HNSW beam widths, PQ
// compression).
type ANNSOptions = core.ANNSOptions

// CTSOptions tunes the clustered searcher (reduction, cluster granularity,
// clusters visited per query).
type CTSOptions = core.CTSOptions

// NewFederation returns an empty federation.
func NewFederation() *Federation { return table.NewFederation() }

// NewLexicon returns an empty lexicon. Populate it with AddSynonyms:
//
//	lex := semdisco.NewLexicon()
//	lex.AddSynonyms("COVID", "coronavirus", "SARS-CoV-2")
func NewLexicon() *Lexicon { return embed.NewLexicon() }

// ReadCSV parses one relation from CSV (first record is the header).
func ReadCSV(r io.Reader, id, source string) (*Relation, error) {
	return table.ReadCSV(r, id, source)
}

// LoadDir loads every *.csv file in dir as one relation each.
func LoadDir(dir string) (*Federation, error) { return table.LoadDir(dir) }

// federationStats builds inverse-document-frequency statistics over the
// federation's relations, treating each relation's consolidated text as a
// document.
func federationStats(fed *Federation) *text.CorpusStats {
	stats := &text.CorpusStats{}
	for _, r := range fed.Relations() {
		toks := text.Tokenize(r.Text())
		stemmed := make([]string, len(toks))
		for i, t := range toks {
			stemmed[i] = text.Stem(t)
		}
		stats.AddDocument(stemmed)
	}
	return stats
}

// statsIDF adapts corpus statistics into the encoder's IDF callback.
func statsIDF(stats *text.CorpusStats) func(string) float64 {
	return func(token string) float64 { return stats.IDF(text.Stem(token)) }
}
