package tacl

import (
	"strings"
	"testing"
	"time"
)

// globMatchRecursive is the textbook recursive matcher globMatch replaced:
// obviously right, and exponential in the number of stars. It stays here as
// the oracle globMatch is checked against.
func globMatchRecursive(pattern, s string) bool {
	if pattern == "" {
		return s == ""
	}
	switch pattern[0] {
	case '*':
		for i := 0; i <= len(s); i++ {
			if globMatchRecursive(pattern[1:], s[i:]) {
				return true
			}
		}
		return false
	case '?':
		return s != "" && globMatchRecursive(pattern[1:], s[1:])
	default:
		return s != "" && s[0] == pattern[0] && globMatchRecursive(pattern[1:], s[1:])
	}
}

// allWords returns every string of length 0..n over alphabet.
func allWords(alphabet string, n int) []string {
	words := []string{""}
	level := []string{""}
	for range n {
		var grown []string
		for _, w := range level {
			for i := range len(alphabet) {
				grown = append(grown, w+alphabet[i:i+1])
			}
		}
		words = append(words, grown...)
		level = grown
	}
	return words
}

// Every pattern and every string of length ≤ 6 over {a,b,*,?}: the
// iterative matcher agrees with the recursive oracle on all of them.
func TestGlobMatchAgreesWithRecursive(t *testing.T) {
	words := allWords("ab*?", 6)
	bad := 0
	for _, p := range words {
		for _, s := range words {
			if got, want := globMatch(p, s), globMatchRecursive(p, s); got != want {
				if bad++; bad <= 10 {
					t.Errorf("globMatch(%q, %q) = %v, want %v", p, s, got, want)
				}
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}

// A pattern of k "*a" then "b" against a run of a's is the worst case for
// the recursive matcher: k=8 took 125 ms, about 16× more per two stars. One
// `string match` is one metered step, so it must stay polynomial.
func TestGlobMatchStarsArePolynomial(t *testing.T) {
	pattern := strings.Repeat("*a", 10) + "b"
	s := strings.Repeat("a", 30)
	start := time.Now()
	in := New()
	got, err := in.Eval(`list [string match ` + pattern + ` ` + s + `] [switch -glob ` + s + ` {` + pattern + ` {set r 1} default {set r 0}}]`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "0 0" {
		t.Fatalf("got %q, want %q", got, "0 0")
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("k=10 stars took %v, want < 100ms", d)
	}
}
