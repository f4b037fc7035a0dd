package text

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// FuzzStem: the stemmer must never panic, never grow a token by more than
// one byte, and must be deterministic.
func FuzzStem(f *testing.F) {
	for _, seed := range []string{
		"", "a", "running", "vaccination", "flies", "agreed", "sky",
		"controlling", "sses", "ied", "eed", "ing", "y", "bb",
		"xxxxxxxxxxxxxxxxxxxxxxxxxxxxing", "ational", "iviti",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// The stemmer operates on lowercase tokens; feed it what the
		// tokenizer would produce.
		for _, tok := range Tokenize(s) {
			got := Stem(tok)
			if len(got) > len(tok)+1 {
				t.Fatalf("Stem(%q)=%q grew too much", tok, got)
			}
			if got != Stem(tok) {
				t.Fatalf("Stem(%q) not deterministic", tok)
			}
		}
	})
}

// refTokenize is the tokenizer Tokenize replaced, kept as its reference:
// it grows one strings.Builder rune by rune and flushes a token at every
// separator and every letter/digit boundary.
func refTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	var curKind rune // 'a' letters, 'd' digits, 0 none
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
		curKind = 0
	}
	for _, r := range s {
		var kind rune
		switch {
		case unicode.IsLetter(r):
			kind = 'a'
		case unicode.IsDigit(r):
			kind = 'd'
		default:
			flush()
			continue
		}
		if curKind != 0 && kind != curKind {
			flush()
		}
		curKind = kind
		cur.WriteRune(unicode.ToLower(r))
	}
	flush()
	return out
}

// FuzzTokenize: tokens are non-empty, valid UTF-8 and contain no
// separators, and they equal the reference tokenizer's token for token.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "COVID-19", "2021-01-01", "日本語 text",
		"a,b;c", "\x00\x01", "ünïcödé", "tab\tsep",
		"\u0130stanbul", "\u212Aelvin", "\xff\xfeab\xc3", "x1y2", "\u0663\u0664abc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatal("empty token")
			}
			if !utf8.ValidString(tok) {
				t.Fatalf("invalid UTF-8 token %q", tok)
			}
			for _, r := range tok {
				if r == ' ' || r == ',' || r == '\n' {
					t.Fatalf("separator inside token %q", tok)
				}
			}
		}
		if want := refTokenize(s); !slices.Equal(toks, want) {
			t.Fatalf("Tokenize(%q) = %q, reference tokenizer %q", s, toks, want)
		}
	})
}
