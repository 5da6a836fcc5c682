package piersearch

import (
	"reflect"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	tk := Tokenizer{}
	got := tk.Tokenize("Madonna - Like A Prayer.mp3")
	want := []string{"madonna", "like", "prayer"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDropsStopwordsAndShortTerms(t *testing.T) {
	tk := Tokenizer{}
	got := tk.Tokenize("The Best of X and Y.mp3")
	want := []string{"best"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeDeduplicates(t *testing.T) {
	tk := Tokenizer{}
	got := tk.Tokenize("live live LIVE concert")
	want := []string{"live", "concert"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeEmptyAndPunctuation(t *testing.T) {
	tk := Tokenizer{}
	if got := tk.Tokenize(""); got != nil {
		t.Errorf("Tokenize(\"\") = %v", got)
	}
	if got := tk.Tokenize("!!! --- ..."); got != nil {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	tk := Tokenizer{}
	got := tk.Tokenize("track01 remix 2004")
	want := []string{"track01", "remix", "2004"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestTokenizeCustomStopwordsAndMinLength(t *testing.T) {
	tk := Tokenizer{Stopwords: map[string]bool{"xx": true}, MinLength: 3}
	got := tk.Tokenize("xx yy zzz")
	want := []string{"zzz"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
}

func TestSplitAlnum(t *testing.T) {
	got := splitAlnum("ab-cd_ef 12.gh")
	want := []string{"ab", "cd", "ef", "12", "gh"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitAlnum = %v, want %v", got, want)
	}
}
