// Package tacl implements TacL, the agent language of this TACOMA
// reproduction. The paper carried agents as Tcl procedures in the CODE
// folder of a briefcase, executed by a per-site Tcl interpreter; TacL plays
// the same role. The essential property is that agent code is an
// uninterpreted byte string any site can execute, so migration never has to
// serialize a running thread: state travels in the briefcase, and execution
// restarts from source at the destination.
//
// TacL follows Tcl's surface syntax: a script is a sequence of commands,
// a command is a sequence of words, and everything is a string. Words may
// be braced (literal), quoted (with substitution), or bare; $var and
// [command] substitutions work as in Tcl. Control structures are ordinary
// commands taking bodies as braced strings.
//
// Interpreters enforce a step budget so a runaway agent cannot pin a site;
// the paper proposes charging electronic cash for cycles, and the cash
// package builds exactly that on top of the budget hook.
//
// One engine executes these parse trees: the bytecode VM
// (bytecode.go/vm.go) lowers a Script to a flat register IR on first
// execution and runs it. Expressions compile to ASTs (exprc.go) the VM
// embeds in its operands. The package tests keep a string-walking
// reference interpreter as the oracle the VM is pinned against: results,
// error text, step accounting, side-effect order.
package tacl

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// segKind discriminates the parts of a word.
type segKind int

const (
	segLit segKind = iota // literal text
	segVar                // $name or ${name} variable substitution
	segCmd                // [script] command substitution
)

type segment struct {
	kind   segKind
	text   string  // literal text or variable name
	script *Script // parsed nested script for segCmd
}

// word is a sequence of segments concatenated after substitution.
type word struct {
	segs []segment
}

// command is one command invocation: a list of words, the first of which
// names the command.
type command struct {
	words []word
	line  int
}

// Script is a parsed TacL script. Scripts are immutable once parsed and
// safe to share between interpreter runs. The bytecode program is attached
// lazily on first execution (so every cache layer holding a *Script —
// process parse cache, site script cache — caches the compiled program for
// free) and is itself immutable once published.
type Script struct {
	cmds []command
	src  string

	prog atomic.Pointer[program] // compiled bytecode, nil until first run
	sig  atomic.Pointer[procSig] // last parameter list this script was a proc body for
}

// Source returns the original text the script was parsed from.
func (s *Script) Source() string { return s.src }

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("tacl: parse error at line %d: %s", e.Line, e.Msg)
}

type parser struct {
	src  []byte
	pos  int
	line int
}

// Parse parses a TacL script.
func Parse(src string) (*Script, error) {
	p := &parser{src: []byte(src), line: 1}
	cmds, err := p.parseScript(0)
	if err != nil {
		return nil, err
	}
	return &Script{cmds: cmds, src: src}, nil
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) advance() byte {
	c := p.src[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

// parseScript parses commands until EOF (depth 0) or an unbalanced ']'
// (depth > 0, for command substitution).
func (p *parser) parseScript(depth int) ([]command, error) {
	var cmds []command
	for {
		p.skipCommandSeparators()
		if p.eof() {
			if depth > 0 {
				return nil, p.errf("missing close-bracket")
			}
			return cmds, nil
		}
		if depth > 0 && p.peek() == ']' {
			return cmds, nil
		}
		if p.peek() == '#' {
			p.skipComment()
			continue
		}
		cmd, err := p.parseCommand(depth)
		if err != nil {
			return nil, err
		}
		if len(cmd.words) > 0 {
			cmds = append(cmds, cmd)
		}
	}
}

func (p *parser) skipCommandSeparators() {
	for !p.eof() {
		switch p.peek() {
		case ' ', '\t', '\r', '\n', ';':
			p.advance()
		default:
			return
		}
	}
}

func (p *parser) skipComment() {
	for !p.eof() && p.peek() != '\n' {
		p.advance()
	}
}

func (p *parser) skipBlank() {
	for !p.eof() {
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\r' {
			p.advance()
			continue
		}
		// Backslash-newline is a line continuation.
		if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.advance()
			p.advance()
			continue
		}
		return
	}
}

// parseCommand parses words until newline, ';', EOF, or closing ']'.
func (p *parser) parseCommand(depth int) (command, error) {
	cmd := command{line: p.line}
	for {
		p.skipBlank()
		if p.eof() {
			return cmd, nil
		}
		switch c := p.peek(); {
		case c == '\n' || c == ';':
			p.advance()
			return cmd, nil
		case depth > 0 && c == ']':
			return cmd, nil
		}
		w, err := p.parseWord(depth)
		if err != nil {
			return cmd, err
		}
		cmd.words = append(cmd.words, w)
	}
}

func (p *parser) parseWord(depth int) (word, error) {
	switch p.peek() {
	case '{':
		return p.parseBracedWord()
	case '"':
		return p.parseQuotedWord()
	default:
		return p.parseBareWord(depth)
	}
}

// parseBracedWord consumes {..balanced..}; no substitutions are performed.
func (p *parser) parseBracedWord() (word, error) {
	startLine := p.line
	p.advance() // '{'
	var sb strings.Builder
	nest := 1
	for {
		if p.eof() {
			p.line = startLine
			return word{}, p.errf("missing close-brace")
		}
		c := p.advance()
		switch c {
		case '{':
			nest++
		case '}':
			nest--
			if nest == 0 {
				if err := p.requireWordEnd(); err != nil {
					return word{}, err
				}
				return word{segs: []segment{{kind: segLit, text: sb.String()}}}, nil
			}
		case '\\':
			// Backslashes pass through braces verbatim, except that a
			// backslash-newline still continues the line, and escaped
			// braces do not count toward nesting.
			if !p.eof() && (p.peek() == '{' || p.peek() == '}' || p.peek() == '\\') {
				sb.WriteByte(c)
				sb.WriteByte(p.advance())
				continue
			}
		}
		if nest > 0 || c != '}' {
			sb.WriteByte(c)
		}
	}
}

// requireWordEnd checks that a quoted or braced word is followed by a word
// boundary, catching errors like {a}b.
func (p *parser) requireWordEnd() error {
	if p.eof() {
		return nil
	}
	switch p.peek() {
	case ' ', '\t', '\r', '\n', ';', ']':
		return nil
	}
	return p.errf("extra characters after close-brace or close-quote")
}

func (p *parser) parseQuotedWord() (word, error) {
	startLine := p.line
	p.advance() // '"'
	var w word
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			w.segs = append(w.segs, segment{kind: segLit, text: lit.String()})
			lit.Reset()
		}
	}
	for {
		if p.eof() {
			p.line = startLine
			return word{}, p.errf("missing close-quote")
		}
		switch c := p.peek(); c {
		case '"':
			p.advance()
			flush()
			if len(w.segs) == 0 {
				w.segs = []segment{{kind: segLit, text: ""}}
			}
			if err := p.requireWordEnd(); err != nil {
				return word{}, err
			}
			return w, nil
		case '\\':
			s, err := p.parseEscape()
			if err != nil {
				return word{}, err
			}
			lit.WriteString(s)
		case '$':
			flush()
			seg, err := p.parseVarSegment()
			if err != nil {
				return word{}, err
			}
			w.segs = append(w.segs, seg)
		case '[':
			flush()
			seg, err := p.parseCmdSegment()
			if err != nil {
				return word{}, err
			}
			w.segs = append(w.segs, seg)
		default:
			lit.WriteByte(p.advance())
		}
	}
}

func (p *parser) parseBareWord(depth int) (word, error) {
	var w word
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			w.segs = append(w.segs, segment{kind: segLit, text: lit.String()})
			lit.Reset()
		}
	}
	for {
		if p.eof() {
			break
		}
		c := p.peek()
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' {
			break
		}
		if depth > 0 && c == ']' {
			break
		}
		switch c {
		case '\\':
			s, err := p.parseEscape()
			if err != nil {
				return word{}, err
			}
			lit.WriteString(s)
		case '$':
			flush()
			seg, err := p.parseVarSegment()
			if err != nil {
				return word{}, err
			}
			w.segs = append(w.segs, seg)
		case '[':
			flush()
			seg, err := p.parseCmdSegment()
			if err != nil {
				return word{}, err
			}
			w.segs = append(w.segs, seg)
		default:
			lit.WriteByte(p.advance())
		}
	}
	flush()
	if len(w.segs) == 0 {
		w.segs = []segment{{kind: segLit, text: ""}}
	}
	return w, nil
}

func (p *parser) parseEscape() (string, error) {
	p.advance() // '\'
	if p.eof() {
		return "", p.errf("trailing backslash")
	}
	c := p.advance()
	switch c {
	case 'n':
		return "\n", nil
	case 't':
		return "\t", nil
	case 'r':
		return "\r", nil
	case '\n':
		return " ", nil // line continuation
	case 'a':
		return "\a", nil
	case '0':
		return "\x00", nil
	default:
		return string(c), nil
	}
}

// parseVarSegment parses $name or ${name}. A bare '$' with no valid name is
// literal, as in Tcl.
func (p *parser) parseVarSegment() (segment, error) {
	p.advance() // '$'
	if p.eof() {
		return segment{kind: segLit, text: "$"}, nil
	}
	if p.peek() == '{' {
		p.advance()
		var sb strings.Builder
		for {
			if p.eof() {
				return segment{}, p.errf("missing close-brace for variable name")
			}
			c := p.advance()
			if c == '}' {
				return segment{kind: segVar, text: sb.String()}, nil
			}
			sb.WriteByte(c)
		}
	}
	var sb strings.Builder
	for !p.eof() && isVarChar(p.peek()) {
		sb.WriteByte(p.advance())
	}
	if sb.Len() == 0 {
		return segment{kind: segLit, text: "$"}, nil
	}
	return segment{kind: segVar, text: sb.String()}, nil
}

func isVarChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// parseCmdSegment parses [script].
func (p *parser) parseCmdSegment() (segment, error) {
	startLine := p.line
	p.advance() // '['
	cmds, err := p.parseScript(1)
	if err != nil {
		return segment{}, err
	}
	if p.eof() || p.peek() != ']' {
		p.line = startLine
		return segment{}, p.errf("missing close-bracket")
	}
	p.advance() // ']'
	return segment{kind: segCmd, script: &Script{cmds: cmds}}, nil
}
