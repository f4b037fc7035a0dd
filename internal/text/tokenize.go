// Package text provides the lexical layer shared by the sentence encoder and
// the syntactic baselines: tokenization, stopword filtering, Porter stemming,
// character n-grams and corpus-level term statistics.
package text

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lowercase word tokens. A token is a maximal run of
// letters or digits; everything else is a separator. Mixed alphanumeric runs
// ("covid19", "2021-01-01") split into their letter and digit parts so that
// numbers remain individually matchable, mirroring how word-piece tokenizers
// isolate digit groups.
//
// Each token is its own string: callers keep tokens as map keys (corpus
// statistics, the lexicon), and tokens sliced from one shared string would
// pin the whole text for as long as any one of them lives.
func Tokenize(s string) []string {
	var stack [256]byte
	buf, ends := AppendTokens(stack[:0], nil, s)
	if len(ends) == 0 {
		return nil
	}
	out := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = string(buf[start:end])
		start = end
	}
	return out
}

// AppendTokens is Tokenize without a string per token: it appends the
// lowercased bytes of each of s's tokens to buf, back to back, and each
// token's end offset in buf to ends. Token i is buf[ends[i-1]:ends[i]]
// (from 0 for the first). An encoder that reuses buf and ends tokenizes
// without allocating.
func AppendTokens(buf []byte, ends []int, s string) ([]byte, []int) {
	var kind byte // 'a' letters, 'd' digits, 0 between tokens
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			var k byte
			switch {
			case 'a' <= c && c <= 'z':
				k = 'a'
			case 'A' <= c && c <= 'Z':
				k, c = 'a', c+('a'-'A')
			case '0' <= c && c <= '9':
				k = 'd'
			}
			if k != kind && kind != 0 {
				ends = append(ends, len(buf))
			}
			if kind = k; k != 0 {
				buf = append(buf, c)
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		var k byte
		switch {
		case unicode.IsLetter(r):
			k = 'a'
		case unicode.IsDigit(r):
			k = 'd'
		}
		if k != kind && kind != 0 {
			ends = append(ends, len(buf))
		}
		if kind = k; k != 0 {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		}
	}
	if kind != 0 {
		ends = append(ends, len(buf))
	}
	return buf, ends
}

// stopwords is the standard short English stop list used by the syntactic
// baselines and by IDF weighting in the encoder.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "if": {}, "in": {}, "into": {}, "is": {},
	"it": {}, "no": {}, "not": {}, "of": {}, "on": {}, "or": {}, "such": {},
	"that": {}, "the": {}, "their": {}, "then": {}, "there": {}, "these": {},
	"they": {}, "this": {}, "to": {}, "was": {}, "will": {}, "with": {},
	"from": {}, "has": {}, "have": {}, "had": {}, "he": {}, "she": {},
	"we": {}, "you": {}, "i": {}, "its": {}, "were": {}, "been": {},
	"about": {}, "after": {}, "all": {}, "also": {}, "can": {}, "which": {},
	"what": {}, "when": {}, "where": {}, "who": {}, "how": {}, "than": {},
	"each": {}, "per": {}, "via": {}, "between": {}, "during": {},
}

// IsStopword reports whether the (already lowercase) token is on the stop
// list.
func IsStopword(tok string) bool {
	_, ok := stopwords[tok]
	return ok
}

// RemoveStopwords returns toks without stopword entries, preserving order.
// The input slice is not modified.
func RemoveStopwords(toks []string) []string {
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		if !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}

// CharNGrams returns the character n-grams of tok with boundary markers,
// fastText style: "where" with n=3 yields "<wh", "whe", "her", "ere", "re>".
// Tokens shorter than n-1 runes yield the single padded token "<tok>".
func CharNGrams(tok string, n int) []string {
	if n <= 0 {
		return nil
	}
	padded := "<" + tok + ">"
	runes := []rune(padded)
	if len(runes) <= n {
		return []string{padded}
	}
	out := make([]string, 0, len(runes)-n+1)
	for i := 0; i+n <= len(runes); i++ {
		out = append(out, string(runes[i:i+n]))
	}
	return out
}

// WordNGrams returns the word n-grams (joined with a space) of toks.
func WordNGrams(toks []string, n int) []string {
	if n <= 0 || len(toks) < n {
		return nil
	}
	out := make([]string, 0, len(toks)-n+1)
	for i := 0; i+n <= len(toks); i++ {
		out = append(out, strings.Join(toks[i:i+n], " "))
	}
	return out
}

// IsNumeric reports whether the token consists solely of digits.
func IsNumeric(tok string) bool {
	if tok == "" {
		return false
	}
	for _, r := range tok {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}
