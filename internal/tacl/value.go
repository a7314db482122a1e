package tacl

import (
	"fmt"
	"strconv"
	"strings"
)

// TacL values are strings; lists are strings in Tcl list syntax: elements
// separated by whitespace, with braces quoting elements that contain
// special characters. FormatList and ParseList are inverses for all inputs.

// FormatList renders elements as a TacL list string.
func FormatList(elems []string) string {
	var sb strings.Builder
	for i, e := range elems {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(quoteElem(e))
	}
	return sb.String()
}

func quoteElem(e string) string {
	if e == "" {
		return "{}"
	}
	if !needsQuote(e) {
		return e
	}
	if bracesBalanced(e) && !strings.HasSuffix(e, "\\") {
		return "{" + e + "}"
	}
	// Fall back to backslash escaping.
	var sb strings.Builder
	for i := 0; i < len(e); i++ {
		c := e[i]
		switch c {
		case ' ', '\t', ';', '"', '{', '}', '[', ']', '$', '\\':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString("\\n")
		case '\r':
			sb.WriteString("\\r")
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// needsQuote must cover every byte ParseList treats as a separator (isSpace:
// space, tab, newline, carriage return) or as syntax; a bare element
// containing any of them would not survive the round trip.
func needsQuote(e string) bool {
	return strings.ContainsAny(e, " \t\n\r;\"{}[]$\\")
}

func bracesBalanced(e string) bool {
	nest := 0
	for i := 0; i < len(e); i++ {
		switch e[i] {
		case '\\':
			i++ // skip escaped char
		case '{':
			nest++
		case '}':
			nest--
			if nest < 0 {
				return false
			}
		}
	}
	return nest == 0
}

// ParseList splits a TacL list string into its elements. No variable or
// command substitution is performed.
func ParseList(s string) ([]string, error) {
	var elems []string
	i := 0
	n := len(s)
	for {
		for i < n && isSpace(s[i]) {
			i++
		}
		if i >= n {
			return elems, nil
		}
		switch s[i] {
		case '{':
			nest := 1
			j := i + 1
			for j < n && nest > 0 {
				switch s[j] {
				case '\\':
					j++
				case '{':
					nest++
				case '}':
					nest--
				}
				j++
			}
			if nest != 0 {
				return nil, fmt.Errorf("tacl: unmatched open-brace in list")
			}
			elems = append(elems, s[i+1:j-1])
			i = j
			if i < n && !isSpace(s[i]) {
				return nil, fmt.Errorf("tacl: list element in braces followed by %q", s[i])
			}
		case '"':
			var sb strings.Builder
			j := i + 1
			for j < n && s[j] != '"' {
				if s[j] == '\\' && j+1 < n {
					j++
					sb.WriteByte(unescapeChar(s[j]))
				} else {
					sb.WriteByte(s[j])
				}
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("tacl: unmatched quote in list")
			}
			elems = append(elems, sb.String())
			i = j + 1
			if i < n && !isSpace(s[i]) {
				return nil, fmt.Errorf("tacl: list element in quotes followed by %q", s[i])
			}
		default:
			// A bare element without backslashes is its own source text.
			j := i
			for j < n && !isSpace(s[j]) && s[j] != '\\' {
				j++
			}
			if j == n || isSpace(s[j]) {
				elems = append(elems, s[i:j])
				i = j
				continue
			}
			var sb strings.Builder
			j = i
			for j < n && !isSpace(s[j]) {
				if s[j] == '\\' && j+1 < n {
					j++
					sb.WriteByte(unescapeChar(s[j]))
				} else {
					sb.WriteByte(s[j])
				}
				j++
			}
			elems = append(elems, sb.String())
			i = j
		}
	}
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func unescapeChar(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	default:
		return c
	}
}

// Truthy interprets a string as a boolean the way Tcl conditions do.
func Truthy(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "1", "true", "yes", "on":
		return true, nil
	case "0", "false", "no", "off", "":
		return false, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f != 0, nil
	}
	return false, fmt.Errorf("tacl: expected boolean, got %q", s)
}

// FormatBool renders a boolean as TacL's canonical 1/0.
func FormatBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}
