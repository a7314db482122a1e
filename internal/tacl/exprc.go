package tacl

import (
	"errors"
	"fmt"
	"strings"
)

// Compiled expressions. compileExpr parses an expression once and produces
// an AST whose eval walks values only; the compiled form is immutable and
// shared through the expression cache, so every activation of the same
// script evaluates pre-compiled conditions. The bytecode compiler embeds
// these trees in its opCondJump/opExpr operands, specialized to the
// program's variable slots, with an integer postfix program (intProg) in
// front where the tree allows one; evalExpr walks the shared tree for the
// expr builtin.
//
// Semantics are pinned to the test oracle's string-walking evaluator —
// including its quirks: ternary evaluates both branches, && and || evaluate
// both sides, operands evaluate left-to-right before operator type checks,
// and nested [command] substitution runs through the ordinary script
// interpreter (so step budgets and step hooks bill exactly the same
// commands in the same order). The equivalence suite and FuzzCompileEval
// enforce this.

type exprProg struct {
	root exprNode
}

type exprNode interface {
	eval(in *Interp) (exprVal, error)
}

// compileExpr compiles an expression source to its AST. Errors are
// unwrapped; evalExpr adds the `expr %q:` frame.
func compileExpr(src string) (*exprProg, error) {
	p := &exprParser{src: src}
	n, err := p.compileTernary()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos < len(p.src) {
		return nil, fmt.Errorf("trailing garbage at %d", p.pos)
	}
	return &exprProg{root: n}, nil
}

// --- AST nodes ---

type constNode struct{ v exprVal }

func (n *constNode) eval(*Interp) (exprVal, error) { return n.v, nil }

type varNode struct{ name string }

func (n *varNode) eval(in *Interp) (exprVal, error) {
	v, err := in.getVar(n.name)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(v), nil
}

// slotVarNode is a varNode specialized by the bytecode compiler against one
// program's slot layout: when evaluation happens in a scope bound to that
// exact program (and not diverted by global/upvar links), the read is a
// direct slot index; otherwise it falls back to the full resolver.
type slotVarNode struct {
	name string
	prog *program
	slot int32
}

func (n *slotVarNode) eval(in *Interp) (exprVal, error) {
	if sc := in.curScope(); sc.prog == n.prog && !sc.diverted {
		if sc.meta[n.slot]&slotLive != 0 {
			return strVal(sc.slots[n.slot]), nil
		}
		return exprVal{}, fmt.Errorf("tacl: no such variable %q", n.name)
	}
	v, err := in.getVar(n.name)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(v), nil
}

// cmdNode is a [command] substitution; the script inside the brackets is
// parsed at compile time and executed per evaluation.
type cmdNode struct{ body *Script }

func (n *cmdNode) eval(in *Interp) (exprVal, error) {
	res, err := in.EvalScript(n.body)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(res), nil
}

// slotCmdNode is a cmdNode specialized by the bytecode compiler: the body
// is compiled against the enclosing program's variable layout (see
// compileProgram), so the nested activation's variable ops keep the slot
// fast path. Behaviorally identical to cmdNode — EvalScript on the same
// body would run the body's independently compiled program instead.
type slotCmdNode struct {
	prog *program
}

func (n *slotCmdNode) eval(in *Interp) (exprVal, error) {
	res, err := in.runVM(n.prog)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(res), nil
}

type notNode struct{ x exprNode }

func (n *notNode) eval(in *Interp) (exprVal, error) {
	v, err := n.x.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	b, err := v.truthy()
	if err != nil {
		return exprVal{}, err
	}
	return boolVal(!b), nil
}

type negNode struct{ x exprNode }

func (n *negNode) eval(in *Interp) (exprVal, error) {
	v, err := n.x.eval(in)
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
}

// andOrNode mirrors the test oracle exactly: the left operand's
// truthiness is checked before the right operand is evaluated, and the
// right operand is always evaluated (no short-circuit).
type andOrNode struct {
	or   bool
	l, r exprNode
}

func (n *andOrNode) eval(in *Interp) (exprVal, error) {
	l, err := n.l.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	lb, err := l.truthy()
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	rb, err := r.truthy()
	if err != nil {
		return exprVal{}, err
	}
	if n.or {
		return boolVal(lb || rb), nil
	}
	return boolVal(lb && rb), nil
}

type eqNode struct {
	op   string // "eq", "ne", "==", "!="
	l, r exprNode
}

func (n *eqNode) eval(in *Interp) (exprVal, error) {
	l, err := n.l.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	return applyEquality(n.op, l, r), nil
}

type relNode struct {
	op   string // "<", "<=", ">", ">="
	l, r exprNode
}

func (n *relNode) eval(in *Interp) (exprVal, error) {
	l, err := n.l.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	return applyRelational(n.op, l, r), nil
}

type addNode struct {
	op   byte // '+' or '-'
	l, r exprNode
}

func (n *addNode) eval(in *Interp) (exprVal, error) {
	l, err := n.l.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	return applyAdditive(n.op, l, r)
}

type mulNode struct {
	op   byte // '*', '/', '%'
	l, r exprNode
}

func (n *mulNode) eval(in *Interp) (exprVal, error) {
	l, err := n.l.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	return applyMultiplicative(n.op, l, r)
}

// ternaryNode evaluates the condition's truthiness first, then — like the
// test oracle — evaluates BOTH branches before selecting one.
type ternaryNode struct {
	cond, then, els exprNode
}

func (n *ternaryNode) eval(in *Interp) (exprVal, error) {
	cond, err := n.cond.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	ok, err := cond.truthy()
	if err != nil {
		return exprVal{}, err
	}
	thenV, err := n.then.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	elseV, err := n.els.eval(in)
	if err != nil {
		return exprVal{}, err
	}
	if ok {
		return thenV, nil
	}
	return elseV, nil
}

type callNode struct {
	name string
	args []exprNode
}

func (n *callNode) eval(in *Interp) (exprVal, error) {
	args := make([]exprVal, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(in)
		if err != nil {
			return exprVal{}, err
		}
		args[i] = v
	}
	return applyFunc(n.name, args)
}

// --- shared operator application (used by both evaluators) ---

func applyEquality(op string, left, right exprVal) exprVal {
	switch op {
	case "eq":
		return boolVal(left.text() == right.text())
	case "ne":
		return boolVal(left.text() != right.text())
	case "==":
		if left.isFlt && right.isFlt {
			return boolVal(left.f == right.f)
		}
		return boolVal(left.text() == right.text())
	default: // "!="
		if left.isFlt && right.isFlt {
			return boolVal(left.f != right.f)
		}
		return boolVal(left.text() != right.text())
	}
}

func applyRelational(op string, left, right exprVal) exprVal {
	var res bool
	if left.isFlt && right.isFlt {
		switch op {
		case "<":
			res = left.f < right.f
		case "<=":
			res = left.f <= right.f
		case ">":
			res = left.f > right.f
		case ">=":
			res = left.f >= right.f
		}
	} else {
		c := strings.Compare(left.text(), right.text())
		switch op {
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
	}
	return boolVal(res)
}

func applyAdditive(op byte, left, right exprVal) (exprVal, error) {
	if err := left.needNum(); err != nil {
		return exprVal{}, err
	}
	if err := right.needNum(); err != nil {
		return exprVal{}, err
	}
	if left.isInt && right.isInt {
		if op == '+' {
			return numVal(left.i + right.i), nil
		}
		return numVal(left.i - right.i), nil
	}
	if op == '+' {
		return fltVal(left.f + right.f), nil
	}
	return fltVal(left.f - right.f), nil
}

func applyMultiplicative(op byte, left, right exprVal) (exprVal, error) {
	if err := left.needNum(); err != nil {
		return exprVal{}, err
	}
	if err := right.needNum(); err != nil {
		return exprVal{}, err
	}
	switch op {
	case '*':
		if left.isInt && right.isInt {
			return numVal(left.i * right.i), nil
		}
		return fltVal(left.f * right.f), nil
	case '/':
		if left.isInt && right.isInt {
			if right.i == 0 {
				return exprVal{}, errors.New("division by zero")
			}
			return numVal(floorDiv(left.i, right.i)), nil
		}
		if right.f == 0 {
			return exprVal{}, errors.New("division by zero")
		}
		return fltVal(left.f / right.f), nil
	default: // '%'
		if !left.isInt || !right.isInt {
			return exprVal{}, errors.New("%% requires integers")
		}
		if right.i == 0 {
			return exprVal{}, errors.New("division by zero")
		}
		return numVal(floorMod(left.i, right.i)), nil
	}
}

// --- compile parser (the test oracle walks the same grammar) ---

func (p *exprParser) compileTernary() (exprNode, error) {
	cond, err := p.compileOr()
	if err != nil {
		return nil, err
	}
	if p.peekOp("?") == "" {
		return cond, nil
	}
	p.pos++
	thenN, err := p.compileTernary()
	if err != nil {
		return nil, err
	}
	if p.peekOp(":") == "" {
		return nil, errors.New("expected : in ternary")
	}
	p.pos++
	elseN, err := p.compileTernary()
	if err != nil {
		return nil, err
	}
	return &ternaryNode{cond: cond, then: thenN, els: elseN}, nil
}

func (p *exprParser) compileOr() (exprNode, error) {
	left, err := p.compileAnd()
	if err != nil {
		return nil, err
	}
	for p.peekOp("||") != "" {
		p.pos += 2
		right, err := p.compileAnd()
		if err != nil {
			return nil, err
		}
		left = &andOrNode{or: true, l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) compileAnd() (exprNode, error) {
	left, err := p.compileEquality()
	if err != nil {
		return nil, err
	}
	for p.peekOp("&&") != "" {
		p.pos += 2
		right, err := p.compileEquality()
		if err != nil {
			return nil, err
		}
		left = &andOrNode{l: left, r: right}
	}
	return left, nil
}

func (p *exprParser) compileEquality() (exprNode, error) {
	left, err := p.compileRelational()
	if err != nil {
		return nil, err
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
		right, err := p.compileRelational()
		if err != nil {
			return nil, err
		}
		left = &eqNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) compileRelational() (exprNode, error) {
	left, err := p.compileAdditive()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("<=", ">=", "<", ">")
		if op == "" {
			return left, nil
		}
		p.pos += len(op)
		right, err := p.compileAdditive()
		if err != nil {
			return nil, err
		}
		left = &relNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) compileAdditive() (exprNode, error) {
	left, err := p.compileMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("+", "-")
		if op == "" {
			return left, nil
		}
		p.pos++
		right, err := p.compileMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &addNode{op: op[0], l: left, r: right}
	}
}

func (p *exprParser) compileMultiplicative() (exprNode, error) {
	left, err := p.compileUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peekOp("*", "/", "%")
		if op == "" {
			return left, nil
		}
		p.pos++
		right, err := p.compileUnary()
		if err != nil {
			return nil, err
		}
		left = &mulNode{op: op[0], l: left, r: right}
	}
}

func (p *exprParser) compileUnary() (exprNode, error) {
	p.skipWS()
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '!':
			p.pos++
			x, err := p.compileUnary()
			if err != nil {
				return nil, err
			}
			return &notNode{x: x}, nil
		case '-':
			p.pos++
			x, err := p.compileUnary()
			if err != nil {
				return nil, err
			}
			return &negNode{x: x}, nil
		case '+':
			p.pos++
			return p.compileUnary()
		}
	}
	return p.compilePrimary()
}

func (p *exprParser) compilePrimary() (exprNode, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return nil, errors.New("unexpected end of expression")
	}
	c := p.src[p.pos]
	switch {
	case c == '(':
		p.pos++
		n, err := p.compileTernary()
		if err != nil {
			return nil, err
		}
		p.skipWS()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, errors.New("missing )")
		}
		p.pos++
		return n, nil
	case c == '$':
		name, err := p.scanVarName()
		if err != nil {
			return nil, err
		}
		return &varNode{name: name}, nil
	case c == '[':
		script, err := p.scanBracketed()
		if err != nil {
			return nil, err
		}
		body, err := Parse(script)
		if err != nil {
			return nil, err
		}
		return &cmdNode{body: body}, nil
	case c == '"':
		s, err := p.scanQuoted()
		if err != nil {
			return nil, err
		}
		return &constNode{v: strVal(s)}, nil
	case c == '{':
		s, err := p.scanBraced()
		if err != nil {
			return nil, err
		}
		return &constNode{v: exprVal{s: s}}, nil // braced operands stay strings
	case c >= '0' && c <= '9' || c == '.':
		v, err := p.scanNumber()
		if err != nil {
			return nil, err
		}
		return &constNode{v: v}, nil
	case isAlpha(c):
		return p.compileIdentOrFunc()
	default:
		return nil, fmt.Errorf("unexpected character %q", c)
	}
}

func (p *exprParser) compileIdentOrFunc() (exprNode, error) {
	start := p.pos
	for p.pos < len(p.src) && isVarChar(p.src[p.pos]) {
		p.pos++
	}
	ident := p.src[start:p.pos]
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		return p.compileFuncCall(ident)
	}
	switch ident {
	case "true", "yes", "on":
		return &constNode{v: boolVal(true)}, nil
	case "false", "no", "off":
		return &constNode{v: boolVal(false)}, nil
	}
	return &constNode{v: exprVal{s: ident}}, nil
}

func (p *exprParser) compileFuncCall(name string) (exprNode, error) {
	p.pos++ // '('
	var args []exprNode
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ')' {
		p.pos++
	} else {
		for {
			n, err := p.compileTernary()
			if err != nil {
				return nil, err
			}
			args = append(args, n)
			p.skipWS()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("missing ) in call to %s", name)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("bad argument list for %s", name)
		}
	}
	return &callNode{name: name, args: args}, nil
}

// --- integer programs ---

// intProg is an integer-only operator tree flattened to a postfix program
// over int64: leaves are slot variables and integer constants, operators
// are unary minus, + - * / %, and the relational and ==/!= comparisons,
// which compare as float64 exactly as applyRelational and applyEquality do
// when both sides are numeric. It is built once per compiled expression and
// reproduces the AST's value on every input it accepts; run reports a miss
// — scope not bound to layout or diverted, a leaf unset or not a plain
// integer, a zero divisor — and the caller then walks the generic AST,
// which owns every error text and every non-integer edge. Leaves are pure
// reads, so abandoning a run part-way has no effect to undo.
type intProg struct {
	ops    []intOp
	layout *program
}

type intOp struct {
	code uint8
	slot int32 // iopSlot: variable slot in layout
	k    int64 // iopConst: the constant
}

const (
	iopConst uint8 = iota
	iopSlot
	iopNeg
	iopAdd
	iopSub
	iopMul
	iopDiv
	iopMod
	iopLT
	iopLE
	iopGT
	iopGE
	iopEq
	iopNe
)

// maxIntStack bounds an integer program's operand stack, which lives in a
// fixed array on run's frame; deeper trees keep the generic AST.
const maxIntStack = 8

// compileIntProg returns root's integer program, or nil when root is not an
// operator tree over slot variables of layout and integer constants. A bare
// leaf never qualifies: `expr {$a}` yields the variable's text verbatim
// ("007" stays "007"), while every operator yields a canonical number.
func compileIntProg(root exprNode, layout *program) *intProg {
	switch root.(type) {
	case *constNode, *slotVarNode:
		return nil
	}
	b := intBuilder{prog: &intProg{layout: layout}}
	if !b.emit(root) || b.max > maxIntStack {
		return nil
	}
	return b.prog
}

type intBuilder struct {
	prog       *intProg
	depth, max int
}

func (b *intBuilder) op(o intOp, delta int) {
	b.prog.ops = append(b.prog.ops, o)
	b.depth += delta
	b.max = max(b.max, b.depth)
}

func (b *intBuilder) binary(l, r exprNode, code uint8) bool {
	if !b.emit(l) || !b.emit(r) {
		return false
	}
	b.op(intOp{code: code}, -1)
	return true
}

func (b *intBuilder) emit(n exprNode) bool {
	switch x := n.(type) {
	case *constNode:
		if !x.v.isInt {
			return false
		}
		b.op(intOp{code: iopConst, k: x.v.i}, 1)
	case *slotVarNode:
		if x.prog != b.prog.layout {
			return false
		}
		b.op(intOp{code: iopSlot, slot: x.slot}, 1)
	case *negNode:
		if !b.emit(x.x) {
			return false
		}
		b.op(intOp{code: iopNeg}, 0)
	case *addNode:
		code := iopAdd
		if x.op == '-' {
			code = iopSub
		}
		return b.binary(x.l, x.r, code)
	case *mulNode:
		code := iopMul
		switch x.op {
		case '/':
			code = iopDiv
		case '%':
			code = iopMod
		}
		return b.binary(x.l, x.r, code)
	case *relNode:
		code := iopGE
		switch x.op {
		case "<":
			code = iopLT
		case "<=":
			code = iopLE
		case ">":
			code = iopGT
		}
		return b.binary(x.l, x.r, code)
	case *eqNode:
		switch x.op {
		case "==":
			return b.binary(x.l, x.r, iopEq)
		case "!=":
			return b.binary(x.l, x.r, iopNe)
		}
		return false // eq/ne compare text
	default:
		return false
	}
	return true
}

// run evaluates the program against scope sc; ok=false is a miss (see
// intProg).
func (p *intProg) run(sc *varScope) (v int64, ok bool) {
	if sc.prog != p.layout || sc.diverted {
		return 0, false
	}
	var st [maxIntStack]int64
	n := 0
	for i := range p.ops {
		op := &p.ops[i]
		switch op.code {
		case iopConst:
			st[n] = op.k
			n++
			continue
		case iopSlot:
			if sc.meta[op.slot]&slotLive == 0 {
				return 0, false
			}
			if st[n], ok = fastAtoi(sc.slots[op.slot]); !ok {
				return 0, false
			}
			n++
			continue
		case iopNeg:
			st[n-1] = -st[n-1]
			continue
		}
		n--
		l, r := st[n-1], st[n]
		switch op.code {
		case iopAdd:
			l += r
		case iopSub:
			l -= r
		case iopMul:
			l *= r
		case iopDiv:
			if r == 0 {
				return 0, false
			}
			l = floorDiv(l, r)
		case iopMod:
			if r == 0 {
				return 0, false
			}
			l = floorMod(l, r)
		default:
			l = intRel(op.code, float64(l), float64(r))
		}
		st[n-1] = l
	}
	return st[0], true
}

func intRel(code uint8, l, r float64) int64 {
	var b bool
	switch code {
	case iopLT:
		b = l < r
	case iopLE:
		b = l <= r
	case iopGT:
		b = l > r
	case iopGE:
		b = l >= r
	case iopEq:
		b = l == r
	default: // iopNe
		b = l != r
	}
	if b {
		return 1
	}
	return 0
}
