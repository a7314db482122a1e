package tacl

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// evalExpr evaluates a TacL expression. Like Tcl's expr, it performs its
// own $variable and [command] substitution, so conditions can be passed in
// braces and re-evaluated on every loop iteration. The expression compiles
// once (through the shared cache) and evaluation walks the AST. As in Tcl
// 8, a malformed expression is a compile error: no operand runs, so none
// bills a step or leaves a side effect.
func evalExpr(in *Interp, src string) (string, error) {
	if in.oracle != nil {
		return in.oracle.evalExpr(in, src)
	}
	prog, err := compileExprCached(src)
	if err != nil {
		return "", fmt.Errorf("expr %q: %w", src, err)
	}
	v, err := prog.root.eval(in)
	if err != nil {
		return "", fmt.Errorf("expr %q: %w", src, err)
	}
	return in.exprText(v), nil
}

// exprVal is an expression operand: a number, a string, or both (strings
// that look numeric are promoted on demand). An operator's result is a
// number whose text is rendered only when read (lazy): the intermediates of
// `($a * 31 + $b) % 65521` are never formatted. Read the text through
// text(), never s directly, unless the value is known not to be numeric.
type exprVal struct {
	s     string
	i     int64
	f     float64
	isInt bool
	isFlt bool
	lazy  bool // s is unset: the text is the canonical rendering of i or f
}

func numVal(i int64) exprVal {
	return exprVal{isInt: true, i: i, isFlt: true, f: float64(i), lazy: true}
}

func fltVal(f float64) exprVal {
	return exprVal{isFlt: true, f: f, lazy: true}
}

func strVal(s string) exprVal {
	v := exprVal{s: s}
	if i, ok := fastAtoi(s); ok {
		v.isInt, v.i = true, i
		v.isFlt, v.f = true, float64(i)
	} else if i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64); err == nil {
		v.isInt, v.i = true, i
		v.isFlt, v.f = true, float64(i)
	} else if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
		v.isFlt, v.f = true, f
	}
	return v
}

// fastAtoi parses plain decimal integers — the overwhelmingly common operand
// shape (loop counters, folder lengths) — without the TrimSpace/ParseInt
// machinery. Anything else (whitespace, floats, hex, overflow-length) falls
// back to the reference path above with identical results: 18 digits cannot
// overflow int64, and ParseInt accepts the same sign/leading-zero forms.
func fastAtoi(s string) (int64, bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	i := 0
	neg := false
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		i = 1
		if len(s) == 1 {
			return 0, false
		}
	}
	var n int64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

func boolVal(b bool) exprVal {
	if b {
		return numVal(1)
	}
	return numVal(0)
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func (v exprVal) text() string {
	if !v.lazy {
		return v.s
	}
	if v.isInt {
		return strconv.FormatInt(v.i, 10)
	}
	return formatFloat(v.f)
}

// exprText is text() for an expression's final result: integers render
// through the interpreter's arena (see intText).
func (in *Interp) exprText(v exprVal) string {
	if v.lazy && v.isInt {
		return in.intText(v.i)
	}
	return v.text()
}

func (v exprVal) truthy() (bool, error) {
	if v.isFlt {
		return v.f != 0, nil
	}
	return Truthy(v.s)
}

func (v exprVal) needNum() error {
	if !v.isFlt {
		return fmt.Errorf("expected number, got %q", v.s)
	}
	return nil
}

// exprParser scans expression source for compileExpr.
type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			p.pos++
		case c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n':
			p.pos += 2 // line continuation inside a braced expression
		default:
			return
		}
	}
}

func (p *exprParser) peekOp(ops ...string) string {
	p.skipWS()
	for _, op := range ops {
		if strings.HasPrefix(p.src[p.pos:], op) {
			return op
		}
	}
	return ""
}

// floorDiv and floorMod implement Tcl's flooring integer semantics.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 {
	m := a % b
	if m != 0 && ((a < 0) != (b < 0)) {
		m += b
	}
	return m
}

func isAlpha(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (p *exprParser) scanVarName() (string, error) {
	p.pos++ // '$'
	if p.pos < len(p.src) && p.src[p.pos] == '{' {
		end := strings.IndexByte(p.src[p.pos:], '}')
		if end < 0 {
			return "", errors.New("missing } in variable name")
		}
		name := p.src[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return name, nil
	}
	start := p.pos
	for p.pos < len(p.src) && isVarChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", errors.New("bad variable reference")
	}
	return p.src[start:p.pos], nil
}

func (p *exprParser) scanBracketed() (string, error) {
	start := p.pos + 1
	nest := 0
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case '[':
			nest++
		case ']':
			nest--
			if nest == 0 {
				p.pos = i + 1
				return p.src[start:i], nil
			}
		}
	}
	return "", errors.New("missing ]")
}

func (p *exprParser) scanQuoted() (string, error) {
	var sb strings.Builder
	i := p.pos + 1
	for i < len(p.src) {
		c := p.src[i]
		if c == '"' {
			p.pos = i + 1
			return sb.String(), nil
		}
		if c == '\\' && i+1 < len(p.src) {
			i++
			sb.WriteByte(unescapeChar(p.src[i]))
		} else {
			sb.WriteByte(c)
		}
		i++
	}
	return "", errors.New("missing close quote")
}

func (p *exprParser) scanBraced() (string, error) {
	nest := 0
	start := p.pos + 1
	for i := p.pos; i < len(p.src); i++ {
		switch p.src[i] {
		case '{':
			nest++
		case '}':
			nest--
			if nest == 0 {
				p.pos = i + 1
				return p.src[start:i], nil
			}
		}
	}
	return "", errors.New("missing close brace")
}

func (p *exprParser) scanNumber() (exprVal, error) {
	start := p.pos
	seenDot, seenExp := false, false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && p.pos > start:
			seenExp = true
			if p.pos+1 < len(p.src) && (p.src[p.pos+1] == '+' || p.src[p.pos+1] == '-') {
				p.pos++
			}
		default:
			goto done
		}
		p.pos++
	}
done:
	tok := p.src[start:p.pos]
	if !seenDot && !seenExp {
		i, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return exprVal{}, fmt.Errorf("bad integer %q", tok)
		}
		return numVal(i), nil
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return exprVal{}, fmt.Errorf("bad number %q", tok)
	}
	return fltVal(f), nil
}

// applyFunc applies a math function to already-evaluated operands; shared
// by the compiled path and the test oracle so both agree exactly on arity
// checks, coercions, and error messages.
func applyFunc(name string, args []exprVal) (exprVal, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d args, got %d", name, n, len(args))
		}
		for _, a := range args {
			if err := a.needNum(); err != nil {
				return err
			}
		}
		return nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		if args[0].isInt {
			if args[0].i < 0 {
				return numVal(-args[0].i), nil
			}
			return args[0], nil
		}
		return fltVal(math.Abs(args[0].f)), nil
	case "int":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		return numVal(int64(args[0].f)), nil
	case "double":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		return fltVal(args[0].f), nil
	case "round":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		return numVal(int64(math.Round(args[0].f))), nil
	case "floor":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		return fltVal(math.Floor(args[0].f)), nil
	case "ceil":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		return fltVal(math.Ceil(args[0].f)), nil
	case "sqrt":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		if args[0].f < 0 {
			return exprVal{}, errors.New("sqrt of negative number")
		}
		return fltVal(math.Sqrt(args[0].f)), nil
	case "pow":
		if err := need(2); err != nil {
			return exprVal{}, err
		}
		return fltVal(math.Pow(args[0].f, args[1].f)), nil
	case "min":
		if len(args) == 0 {
			return exprVal{}, errors.New("min needs arguments")
		}
		best := args[0]
		for _, a := range args[1:] {
			if err := a.needNum(); err != nil {
				return exprVal{}, err
			}
			if a.f < best.f {
				best = a
			}
		}
		return best, nil
	case "max":
		if len(args) == 0 {
			return exprVal{}, errors.New("max needs arguments")
		}
		best := args[0]
		for _, a := range args[1:] {
			if err := a.needNum(); err != nil {
				return exprVal{}, err
			}
			if a.f > best.f {
				best = a
			}
		}
		return best, nil
	case "fmod":
		if err := need(2); err != nil {
			return exprVal{}, err
		}
		if args[1].f == 0 {
			return exprVal{}, errors.New("division by zero")
		}
		return fltVal(math.Mod(args[0].f, args[1].f)), nil
	default:
		return exprVal{}, fmt.Errorf("unknown function %q", name)
	}
}
