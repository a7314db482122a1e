package tacl

import (
	"errors"
	"fmt"
	"strings"
)

// The reference interpreter: the slowest, most literal reading of TacL,
// kept as the oracle the VM is differentially tested against. It walks a
// parsed script command by command and word by word, and evaluates
// expressions by re-scanning their source on every evaluation. A test
// installs it with useReference; EvalScript and evalExpr then hand off
// to it, so builtins, procs and host commands run unchanged around it.
//
// It applies the two compile-time rules the VM does before running
// anything: a script that does not compile fails with ErrCompile, and a
// malformed expression fails with its compile error, so no operand runs.

type reference struct{}

// useReference switches in to the reference interpreter.
func useReference(in *Interp) { in.oracle = reference{} }

func (reference) evalScript(in *Interp, s *Script) (string, error) {
	if _, err := s.compiled(); err != nil {
		return "", err
	}
	var result string
	for i := range s.cmds {
		r, err := in.evalCommand(&s.cmds[i])
		if err != nil {
			return "", err
		}
		result = r
	}
	return result, nil
}

func (reference) evalExpr(in *Interp, src string) (string, error) {
	if _, err := compileExpr(src); err != nil {
		return "", fmt.Errorf("expr %q: %w", src, err)
	}
	return evalExprDirect(in, src)
}

// evalCommand charges the command's step, evaluates its words left to
// right and dispatches by name at call time.
func (in *Interp) evalCommand(c *command) (string, error) {
	if err := in.chargeStep(c.line); err != nil {
		return "", err
	}
	base := len(in.argScratch)
	defer func() { in.argScratch = in.argScratch[:base] }()
	for i := range c.words {
		v, err := in.evalWord(&c.words[i])
		if err != nil {
			return "", err
		}
		in.argScratch = append(in.argScratch, v)
	}
	return in.dispatchDyn(in.argScratch[base:], c.line)
}

func (in *Interp) evalWord(w *word) (string, error) {
	var sb strings.Builder
	for i := range w.segs {
		seg := &w.segs[i]
		switch seg.kind {
		case segLit:
			sb.WriteString(seg.text)
		case segVar:
			v, err := in.getVar(seg.text)
			if err != nil {
				return "", err
			}
			sb.WriteString(v)
		case segCmd:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				return "", ErrDepth
			}
			v, err := in.EvalScript(seg.script)
			in.depth--
			if err != nil {
				return "", err
			}
			sb.WriteString(v)
		}
	}
	return sb.String(), nil
}

// refParser is the parse-and-evaluate-in-one-pass expression evaluator:
// compileExpr's grammar, applied to values as it scans.
type refParser struct {
	exprParser
	in *Interp
}

func evalExprDirect(in *Interp, src string) (string, error) {
	p := &refParser{exprParser: exprParser{src: src}, in: in}
	v, err := p.parseTernary()
	if err != nil {
		return "", fmt.Errorf("expr %q: %w", src, err)
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return "", fmt.Errorf("expr %q: trailing garbage at %d", src, p.pos)
	}
	return v.text(), nil
}

func (p *refParser) parseTernary() (exprVal, error) {
	cond, err := p.parseOr()
	if err != nil {
		return exprVal{}, err
	}
	if p.peekOp("?") == "" {
		return cond, nil
	}
	p.pos++
	ok, err := cond.truthy()
	if err != nil {
		return exprVal{}, err
	}
	thenV, err := p.parseTernary()
	if err != nil {
		return exprVal{}, err
	}
	if p.peekOp(":") == "" {
		return exprVal{}, errors.New("expected : in ternary")
	}
	p.pos++
	elseV, err := p.parseTernary()
	if err != nil {
		return exprVal{}, err
	}
	if ok {
		return thenV, nil
	}
	return elseV, nil
}

func (p *refParser) parseOr() (exprVal, error) {
	left, err := p.parseAnd()
	if err != nil {
		return exprVal{}, err
	}
	for p.peekOp("||") != "" {
		p.pos += 2
		lb, err := left.truthy()
		if err != nil {
			return exprVal{}, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return exprVal{}, err
		}
		rb, err := right.truthy()
		if err != nil {
			return exprVal{}, err
		}
		left = boolVal(lb || rb)
	}
	return left, nil
}

func (p *refParser) parseAnd() (exprVal, error) {
	left, err := p.parseEquality()
	if err != nil {
		return exprVal{}, err
	}
	for p.peekOp("&&") != "" {
		p.pos += 2
		lb, err := left.truthy()
		if err != nil {
			return exprVal{}, err
		}
		right, err := p.parseEquality()
		if err != nil {
			return exprVal{}, err
		}
		rb, err := right.truthy()
		if err != nil {
			return exprVal{}, err
		}
		left = boolVal(lb && rb)
	}
	return left, nil
}

func (p *refParser) parseEquality() (exprVal, error) {
	left, err := p.parseRelational()
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := p.peekOp("==", "!=", "eq ", "ne ")
		if op == "" {
			// eq/ne at end of string (no trailing space)
			if p.peekOp("eq", "ne") != "" && p.pos+2 >= len(p.src) {
				op = p.src[p.pos : p.pos+2]
			} else {
				return left, nil
			}
		}
		op = strings.TrimSpace(op)
		p.pos += len(op)
		right, err := p.parseRelational()
		if err != nil {
			return exprVal{}, err
		}
		left = applyEquality(op, left, right)
	}
}

func (p *refParser) parseRelational() (exprVal, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := p.peekOp("<=", ">=", "<", ">")
		if op == "" {
			return left, nil
		}
		p.pos += len(op)
		right, err := p.parseAdditive()
		if err != nil {
			return exprVal{}, err
		}
		left = applyRelational(op, left, right)
	}
}

func (p *refParser) parseAdditive() (exprVal, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := p.peekOp("+", "-")
		if op == "" {
			return left, nil
		}
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return exprVal{}, err
		}
		left, err = applyAdditive(op[0], left, right)
		if err != nil {
			return exprVal{}, err
		}
	}
}

func (p *refParser) parseMultiplicative() (exprVal, error) {
	left, err := p.parseUnary()
	if err != nil {
		return exprVal{}, err
	}
	for {
		op := p.peekOp("*", "/", "%")
		if op == "" {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return exprVal{}, err
		}
		left, err = applyMultiplicative(op[0], left, right)
		if err != nil {
			return exprVal{}, err
		}
	}
}

func (p *refParser) parseUnary() (exprVal, error) {
	p.skipWS()
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '!':
			p.pos++
			v, err := p.parseUnary()
			if err != nil {
				return exprVal{}, err
			}
			b, err := v.truthy()
			if err != nil {
				return exprVal{}, err
			}
			return boolVal(!b), nil
		case '-':
			p.pos++
			v, err := p.parseUnary()
			if err != nil {
				return exprVal{}, err
			}
			if err := v.needNum(); err != nil {
				return exprVal{}, err
			}
			if v.isInt {
				return numVal(-v.i), nil
			}
			return fltVal(-v.f), nil
		case '+':
			p.pos++
			return p.parseUnary()
		}
	}
	return p.parsePrimary()
}

func (p *refParser) parsePrimary() (exprVal, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return exprVal{}, errors.New("unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		v, err := p.parseTernary()
		if err != nil {
			return exprVal{}, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return exprVal{}, errors.New("missing )")
		}
		p.pos++
		return v, nil
	case c == '$':
		name, err := p.scanVarName()
		if err != nil {
			return exprVal{}, err
		}
		v, err := p.in.getVar(name)
		if err != nil {
			return exprVal{}, err
		}
		return strVal(v), nil
	case c == '[':
		script, err := p.scanBracketed()
		if err != nil {
			return exprVal{}, err
		}
		res, err := p.in.Eval(script)
		if err != nil {
			return exprVal{}, err
		}
		return strVal(res), nil
	case c == '"':
		s, err := p.scanQuoted()
		if err != nil {
			return exprVal{}, err
		}
		return strVal(s), nil
	case c == '{':
		s, err := p.scanBraced()
		if err != nil {
			return exprVal{}, err
		}
		return exprVal{s: s}, nil // braced operands stay strings
	case c >= '0' && c <= '9' || c == '.':
		return p.scanNumber()
	case isAlpha(c):
		return p.scanIdentOrFunc()
	default:
		return exprVal{}, fmt.Errorf("unexpected character %q", c)
	}
}

// scanIdentOrFunc handles bare identifiers: true/false, math functions with
// call syntax like sqrt(2), and eq/ne handled upstream. Any other bare word
// is a plain string operand.
func (p *refParser) scanIdentOrFunc() (exprVal, error) {
	start := p.pos
	for p.pos < len(p.src) && isVarChar(p.src[p.pos]) {
		p.pos++
	}
	ident := p.src[start:p.pos]
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		return p.parseFuncCall(ident)
	}
	switch ident {
	case "true", "yes", "on":
		return boolVal(true), nil
	case "false", "no", "off":
		return boolVal(false), nil
	}
	return exprVal{s: ident}, nil
}

func (p *refParser) parseFuncCall(name string) (exprVal, error) {
	p.pos++ // '('
	var args []exprVal
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
	} else {
		for {
			v, err := p.parseTernary()
			if err != nil {
				return exprVal{}, err
			}
			args = append(args, v)
			p.skipWS()
			if p.pos >= len(p.src) {
				return exprVal{}, fmt.Errorf("missing ) in call to %s", name)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return exprVal{}, fmt.Errorf("bad argument list for %s", name)
		}
	}
	return applyFunc(name, args)
}
