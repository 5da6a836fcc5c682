package piersearch

import (
	"strings"
)

// DefaultStopwords are the terms never indexed. The paper calls out "MP3"
// and "the" explicitly; the rest are common filename noise in Gnutella
// traces (file extensions, articles, conjunctions).
var DefaultStopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "and": true, "or": true,
	"in": true, "on": true, "to": true, "is": true, "it": true, "at": true,
	"mp3": true, "avi": true, "mpg": true, "mpeg": true, "wav": true,
	"wma": true, "jpg": true, "gif": true, "zip": true, "exe": true,
	"feat": true, "ft": true, "vs": true,
}

// Tokenizer splits filenames and queries into index terms.
type Tokenizer struct {
	// Stopwords maps terms to skip. Nil means DefaultStopwords.
	Stopwords map[string]bool
	// MinLength drops shorter terms; zero means 2.
	MinLength int
}

func (tk Tokenizer) stop(term string) bool {
	sw := tk.Stopwords
	if sw == nil {
		sw = DefaultStopwords
	}
	return sw[term]
}

func (tk Tokenizer) minLen() int {
	if tk.MinLength <= 0 {
		return 2
	}
	return tk.MinLength
}

// Tokenize lowercases s, splits it on non-alphanumeric characters, and
// drops stopwords and too-short terms. Duplicates are removed, first
// occurrence order preserved — the keyword set of the paper's §3.1.
func (tk Tokenizer) Tokenize(s string) []string {
	var terms []string
	seen := map[string]bool{}
	for _, raw := range splitAlnum(s) {
		term := strings.ToLower(raw)
		if len(term) < tk.minLen() || tk.stop(term) || seen[term] {
			continue
		}
		seen[term] = true
		terms = append(terms, term)
	}
	return terms
}

// splitAlnum splits s into maximal runs of ASCII letters and digits.
func splitAlnum(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}
