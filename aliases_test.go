package semdisco

import (
	"reflect"
	"testing"

	"semdisco/internal/text"
)

// TestFederationStatsMatchesPerTokenStemming: federationStats stems each
// distinct token once; the statistics must equal those of stemming every
// token occurrence, relation by relation.
func TestFederationStatsMatchesPerTokenStemming(t *testing.T) {
	for name, fed := range map[string]*Federation{
		"vaccines":  vaccineFederation(t),
		"synthetic": synthFederation(t, 60),
	} {
		want := &text.CorpusStats{}
		for _, r := range fed.Relations() {
			toks := text.Tokenize(r.Text())
			stemmed := make([]string, len(toks))
			for i, tok := range toks {
				stemmed[i] = text.Stem(tok)
			}
			want.AddDocument(stemmed)
		}
		if got := federationStats(fed); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: memoized stemming changed the corpus statistics", name)
		}
	}
}
