package tacl

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Bytecode compiler. A parsed Script is lowered once into a flat register
// IR: a []vmOp stream with pooled constants, precompiled expressions,
// interned command symbols, and inlined control flow. The VM in vm.go is
// the only engine that executes scripts; a script that does not compile
// (too large, or a compiler fault) fails with ErrCompile before any of its
// commands run. The package tests keep a string-walking reference
// interpreter as the oracle the IR must be observationally identical to
// (results, error text, step accounting, side-effect order, jump/park
// semantics — pinned by the equivalence suite and fuzz targets).
//
// Inlining policy: if/while/for/foreach/expr/set/incr are flattened into
// the op stream only when the relevant words are braced literals (the
// universal idiom); each inlined construct is preceded by a guard op and a
// generic call of the same command, which runs instead of the inline code
// when the name is shadowed by a proc, a per-interp override, or a
// non-canonical table entry, so redefinition semantics are preserved
// exactly. Anything else — including malformed construct grammar, whose
// error text the builtins own — compiles to a generic call.

// Opcodes. a/b/c index the program's pools or are pc targets; line is the
// source line for step charging and error decoration.
const (
	opStep        uint8 = iota // charge one step for the command at line
	opArgConst                 // push consts[a]
	opArgVar                   // push variable named consts[a]
	opArgScript                // push result of scripts[a] ([cmd] substitution)
	opConcat                   // pop a values, push their concatenation (multi-segment word)
	opCall                     // static call syms[a] with top b args
	opCallConst                // static call syms[b] with argLists[a] (all-const args)
	opCallDyn                  // dynamic call, top a words (args[0] is the name)
	opGuard                    // inline guard: unless canon kind is shadowed, jump b (the inline code)
	opCallShadow               // generic call of a shadowed construct: argLists[a], word c (if >= 0) popped
	opJump                     // jump to a
	opCondJump                 // eval exprs[a]; mark slot c (if >=0); jump b when false
	opLoopBottom               // charge step at line if slot a marked no progress; jump b
	opForeachInit              // pop list string, ParseList into slot a
	opForeachNext              // next element of slot a into var consts[c]/var-slot d; jump b when done
	opExpr                     // result = eval exprs[a] (inlined expr command)
	opResult                   // result = consts[a]
	opDepth                    // enter an inlined [cmd]: depth++ with ErrDepth check
	opArgResult                // leave an inlined [cmd]: depth--, push result register
	opLoadSlot                 // push variable consts[a] from var slot b
	opStoreSlot                // inlined `set`: pop value into var slot b (name consts[a]); result = value
	opIncrSlot                 // inlined `incr`: var slot b (name consts[a]) += c; result = new value
)

type vmOp struct {
	code uint8
	kind uint8 // canon kind for opGuard
	line int32
	a    int32
	b    int32
	c    int32
	d    int32 // variable slot for opForeachNext (-1 = none)
}

// exprRef is a precompiled expression operand. A malformed source keeps its
// compile error in err, and evaluating it returns that error without
// running any operand (the same rule as evalExpr). Pure expressions are
// folded at compile time; folding never captures errors, so a constant
// erroring expression still evaluates (and errors) at runtime.
type exprRef struct {
	src            string
	prog           *exprProg
	err            error
	isConst        bool
	constVal       string
	constTruthy    bool
	constTruthyErr error

	// ints is the integer program of an operator tree whose leaves are all
	// slot variables and integer constants (see intProg); nil otherwise.
	ints *intProg
	// cmd is set when the AST is exactly one [command] substitution: the VM
	// runs its layout-shared program directly, skipping the AST node and the
	// exprVal round-trip.
	cmd *slotCmdNode
}

// region describes error-handling extents of the op stream. Loop regions
// intercept break/continue raised anywhere in the loop body (including from
// nested [cmd] substitution); decor regions add the construct's
// name-and-line frame to non-control errors, mirroring the decoration
// dispatch adds around each builtin call. Regions are properly
// nested, so the innermost region containing a pc is the smallest.
type region struct {
	start, end int32 // [start, end) op index range
	isLoop     bool
	// isDepth marks an inlined [cmd] substitution: an error propagating out
	// of the region undoes the opDepth increment.
	isDepth bool
	name    string
	line    int32
	breakPC int32
	contPC  int32
	// scratch is the number of enclosing pending call arguments live at the
	// loop's resume pcs (nonzero when the loop sits inside an inlined [cmd]
	// that is itself an argument under construction). Error recovery restores
	// the arg stack to base+scratch instead of base, so a break escaping the
	// substitution does not discard the outer call's already-pushed words.
	scratch int32
}

type program struct {
	ops      []vmOp
	consts   []string
	exprs    []*exprRef
	syms     []*symbol
	scripts  []*Script
	argLists [][]string
	regions  []region
	numSlots int // loop state slots (marks / foreach lists)
	// Variable layout: every statically-known variable name in this program
	// (set targets, $reads, foreach loop vars, incr targets, expression
	// $operands) owns a dense slot index. A scope bound to this program
	// stores those names in its slot array; varIdx is the resolution table
	// the name-based accessors consult at the terminal scope.
	varIdx   map[string]int32
	varNames []string
	// layout points at the program whose variable layout this program's
	// slot ops index: itself for independently compiled programs, the
	// enclosing parent for [cmd]-substitution bodies compiled against the
	// parent's slots (specializeExpr's cmdNode case). A scope bound to the
	// layout program satisfies every slot op of every program sharing it.
	layout *program
}

const (
	maxInlineDepth = 32
	maxProgramOps  = 1 << 20
	// maxVarSlots caps a program's variable layout; names past the cap (or
	// computed at runtime) live in the scope's overflow map instead. Keeps
	// per-frame slot arrays small enough to pool.
	maxVarSlots = 128
)

// ErrCompile reports a script the bytecode compiler refused: a program
// past maxProgramOps (a hostile agent, not a use case) or a compiler fault.
// The script fails before any of its commands run.
var ErrCompile = errors.New("tacl: script does not compile")

// compiled returns the script's bytecode program, compiling on first use.
// The first program published wins, so a proc's resolved parameter slots
// (procSig.layout) always index the program its calls run. A compile error
// is not remembered: the error path is never hot.
func (s *Script) compiled() (*program, error) {
	if p := s.prog.Load(); p != nil {
		return p, nil
	}
	p, err := compileProgram(s, nil)
	if err != nil {
		return nil, err
	}
	if !s.prog.CompareAndSwap(nil, p) {
		p = s.prog.Load()
	}
	return p, nil
}

// Precompile lowers the script to bytecode ahead of its first execution, so
// cache layers can pay compilation at insert time instead of on the first
// activation's critical path. Safe to call concurrently and more than once;
// a compile error surfaces when the script runs.
func (s *Script) Precompile() { _, _ = s.compiled() }

// compileProgram lowers s against layout's variable slots, or a fresh
// layout of its own when layout is nil. A [cmd]-substitution body inside an
// expression compiles against the enclosing program's layout, so its slot
// ops index the very scope its parent binds.
func compileProgram(s *Script, layout *program) (p *program, err error) {
	// A compiler fault fails the script loudly, never the site.
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("%w: compiler fault: %v", ErrCompile, r)
		}
	}()
	c := newCompiler(layout)
	c.compileCmds(s.cmds)
	if len(c.prog.ops) > maxProgramOps {
		return nil, fmt.Errorf("%w: program exceeds %d ops", ErrCompile, maxProgramOps)
	}
	c.prog.sortRegions()
	return c.prog, nil
}

// sortRegions orders the region table innermost first, the order recoverErr
// visits it in. Regions are properly nested, so the smaller of two regions
// containing a pc is the inner one; the stable sort keeps emission order
// between equal extents, and an inner construct's region is emitted first.
func (p *program) sortRegions() {
	sort.SliceStable(p.regions, func(a, b int) bool {
		ra, rb := &p.regions[a], &p.regions[b]
		return ra.end-ra.start < rb.end-rb.start
	})
}

type compiler struct {
	prog     *program
	constIdx map[string]int32
	exprIdx  map[string]int32
	symIdx   map[*symbol]int32
	inline   int
	// pendingArgs tracks how many argument words of enclosing calls are on
	// the scratch stack at the current emission point (see region.scratch).
	pendingArgs int32
}

// newCompiler starts a program whose variable ops index layout's slots, or
// its own fresh layout when layout is nil.
func newCompiler(layout *program) *compiler {
	p := &program{layout: layout}
	if layout == nil {
		p.varIdx = make(map[string]int32)
		p.layout = p
	}
	return &compiler{
		prog:     p,
		constIdx: make(map[string]int32),
		exprIdx:  make(map[string]int32),
		symIdx:   make(map[*symbol]int32),
	}
}

func (c *compiler) pc() int32 { return int32(len(c.prog.ops)) }

func (c *compiler) emit(op vmOp) int32 {
	c.prog.ops = append(c.prog.ops, op)
	return int32(len(c.prog.ops) - 1)
}

func (c *compiler) patchB(at, target int32) { c.prog.ops[at].b = target }

func (c *compiler) constRef(s string) int32 {
	if i, ok := c.constIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.consts))
	c.prog.consts = append(c.prog.consts, s)
	c.constIdx[s] = i
	return i
}

func (c *compiler) symRef(s *symbol) int32 {
	if i, ok := c.symIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.syms))
	c.prog.syms = append(c.prog.syms, s)
	c.symIdx[s] = i
	return i
}

func (c *compiler) scriptRef(s *Script) int32 {
	c.prog.scripts = append(c.prog.scripts, s)
	return int32(len(c.prog.scripts) - 1)
}

func (c *compiler) argListRef(args []string) int32 {
	c.prog.argLists = append(c.prog.argLists, args)
	return int32(len(c.prog.argLists) - 1)
}

func (c *compiler) newSlot() int32 {
	c.prog.numSlots++
	return int32(c.prog.numSlots - 1)
}

// varRef assigns (or returns) name's slot in the program's variable layout,
// or -1 once the layout is full — the name then compiles to name-based ops
// and lives in the overflow map, consistently everywhere.
func (c *compiler) varRef(name string) int32 {
	lp := c.prog.layout
	if i, ok := lp.varIdx[name]; ok {
		return i
	}
	if len(lp.varNames) >= maxVarSlots {
		return -1
	}
	i := int32(len(lp.varNames))
	lp.varNames = append(lp.varNames, name)
	lp.varIdx[name] = i
	return i
}

func (c *compiler) addRegion(r region) { c.prog.regions = append(c.prog.regions, r) }

// exprRefIdx precompiles an expression operand, folding it when pure and
// otherwise specializing its $variable reads to this program's slots.
func (c *compiler) exprRefIdx(src string) int32 {
	if i, ok := c.exprIdx[src]; ok {
		return i
	}
	ref := &exprRef{src: src}
	if p, err := compileExprCached(src); err != nil {
		ref.err = fmt.Errorf("expr %q: %w", src, err)
	} else {
		ref.prog = p
		if exprPure(p.root) {
			if v, err2 := p.root.eval(nil); err2 == nil {
				ref.isConst = true
				ref.constVal = v.text()
				ref.constTruthy, ref.constTruthyErr = Truthy(ref.constVal)
			}
		} else if root, changed := c.specializeExpr(p.root); changed {
			// The shared cached AST stays untouched (evalExpr keeps using
			// it); this program gets a private clone whose varNodes read
			// their slot directly when the program's scope is current.
			ref.prog = &exprProg{root: root}
			ref.cmd, _ = root.(*slotCmdNode)
			ref.ints = compileIntProg(root, c.prog.layout)
		}
	}
	i := int32(len(c.prog.exprs))
	c.prog.exprs = append(c.prog.exprs, ref)
	c.exprIdx[src] = i
	return i
}

// specializeExpr rewrites an expression AST's varNodes into slotVarNodes
// bound to this program's layout, cloning only the spine above a rewritten
// node. cmdNode bodies are ordinary scripts with their own compilation and
// are shared as-is.
func (c *compiler) specializeExpr(n exprNode) (exprNode, bool) {
	switch x := n.(type) {
	case *varNode:
		if i := c.varRef(x.name); i >= 0 {
			return &slotVarNode{name: x.name, prog: c.prog.layout, slot: i}, true
		}
	case *cmdNode:
		if p2, err := compileProgram(x.body, c.prog.layout); err == nil {
			return &slotCmdNode{prog: p2}, true
		}
	case *notNode:
		if y, ch := c.specializeExpr(x.x); ch {
			return &notNode{x: y}, true
		}
	case *negNode:
		if y, ch := c.specializeExpr(x.x); ch {
			return &negNode{x: y}, true
		}
	case *andOrNode:
		l, cl := c.specializeExpr(x.l)
		r, cr := c.specializeExpr(x.r)
		if cl || cr {
			return &andOrNode{or: x.or, l: l, r: r}, true
		}
	case *eqNode:
		l, cl := c.specializeExpr(x.l)
		r, cr := c.specializeExpr(x.r)
		if cl || cr {
			return &eqNode{op: x.op, l: l, r: r}, true
		}
	case *relNode:
		l, cl := c.specializeExpr(x.l)
		r, cr := c.specializeExpr(x.r)
		if cl || cr {
			return &relNode{op: x.op, l: l, r: r}, true
		}
	case *addNode:
		l, cl := c.specializeExpr(x.l)
		r, cr := c.specializeExpr(x.r)
		if cl || cr {
			return &addNode{op: x.op, l: l, r: r}, true
		}
	case *mulNode:
		l, cl := c.specializeExpr(x.l)
		r, cr := c.specializeExpr(x.r)
		if cl || cr {
			return &mulNode{op: x.op, l: l, r: r}, true
		}
	case *ternaryNode:
		cond, cc := c.specializeExpr(x.cond)
		thenN, ct := c.specializeExpr(x.then)
		elseN, ce := c.specializeExpr(x.els)
		if cc || ct || ce {
			return &ternaryNode{cond: cond, then: thenN, els: elseN}, true
		}
	case *callNode:
		var args []exprNode
		changed := false
		for i, a := range x.args {
			y, ch := c.specializeExpr(a)
			if ch && args == nil {
				args = append([]exprNode(nil), x.args...)
			}
			if args != nil {
				args[i] = y
			}
			changed = changed || ch
		}
		if changed {
			return &callNode{name: x.name, args: args}, true
		}
	}
	return n, false
}

// exprPure reports whether an expression AST is free of variable and
// [command] references, i.e. safe to evaluate at compile time.
func exprPure(n exprNode) bool {
	switch x := n.(type) {
	case *constNode:
		return true
	case *notNode:
		return exprPure(x.x)
	case *negNode:
		return exprPure(x.x)
	case *andOrNode:
		return exprPure(x.l) && exprPure(x.r)
	case *eqNode:
		return exprPure(x.l) && exprPure(x.r)
	case *relNode:
		return exprPure(x.l) && exprPure(x.r)
	case *addNode:
		return exprPure(x.l) && exprPure(x.r)
	case *mulNode:
		return exprPure(x.l) && exprPure(x.r)
	case *ternaryNode:
		return exprPure(x.cond) && exprPure(x.then) && exprPure(x.els)
	case *callNode:
		for _, a := range x.args {
			if !exprPure(a) {
				return false
			}
		}
		return true
	default: // varNode, cmdNode
		return false
	}
}

// parseInt32 parses a base-10 integer constrained to int32 (it travels in a
// vmOp field); out-of-range deltas make the caller fall back to generic
// dispatch, which handles full int64.
func parseInt32(s string) (int64, error) {
	return strconv.ParseInt(s, 10, 32)
}

// constWord returns a word's literal text when it is a single literal
// segment (braced words, bare words without substitution).
func constWord(w *word) (string, bool) {
	if len(w.segs) == 1 && w.segs[0].kind == segLit {
		return w.segs[0].text, true
	}
	return "", false
}

// constArgs returns the command's words as literals when every word is
// constant. The returned slice is shared across executions: CmdFuncs
// receive args read-only (nothing in the builtin set or host bridge
// mutates its argument slice).
func constArgs(cmd *command) ([]string, bool) {
	args := make([]string, len(cmd.words))
	for i := range cmd.words {
		s, ok := constWord(&cmd.words[i])
		if !ok {
			return nil, false
		}
		args[i] = s
	}
	return args, true
}

func (c *compiler) compileCmds(cmds []command) {
	for i := range cmds {
		c.compileCommand(&cmds[i])
	}
}

func (c *compiler) compileCommand(cmd *command) {
	line := int32(cmd.line)
	c.emit(vmOp{code: opStep, line: line})
	name, nameConst := constWord(&cmd.words[0])
	if nameConst && c.inline < maxInlineDepth {
		switch name {
		case "if":
			if c.tryIf(cmd) {
				return
			}
		case "while":
			if c.tryWhile(cmd) {
				return
			}
		case "for":
			if c.tryFor(cmd) {
				return
			}
		case "foreach":
			if c.tryForeach(cmd) {
				return
			}
		case "expr":
			if c.tryExpr(cmd) {
				return
			}
		case "set":
			if c.trySet(cmd) {
				return
			}
		case "incr":
			if c.tryIncr(cmd) {
				return
			}
		}
	}
	if nameConst {
		if sym := internScriptSym(name); sym != nil {
			if args, ok := constArgs(cmd); ok {
				c.emit(vmOp{code: opCallConst, line: line, a: c.argListRef(args[1:]), b: c.symRef(sym)})
				return
			}
			saved := c.pendingArgs
			for i := 1; i < len(cmd.words); i++ {
				c.compileArg(&cmd.words[i])
				c.pendingArgs++
			}
			c.pendingArgs = saved
			c.emit(vmOp{code: opCall, line: line, a: c.symRef(sym), b: int32(len(cmd.words) - 1)})
			return
		}
	}
	saved := c.pendingArgs
	for i := range cmd.words {
		c.compileArg(&cmd.words[i])
		c.pendingArgs++
	}
	c.pendingArgs = saved
	c.emit(vmOp{code: opCallDyn, line: line, a: int32(len(cmd.words))})
}

// compileArg pushes one word's value. A multi-segment word pushes each
// segment and joins them with opConcat; the segments already pushed count
// as pending arguments for any loop inlined in a later segment.
func (c *compiler) compileArg(w *word) {
	if len(w.segs) == 1 {
		c.compileSeg(&w.segs[0])
		return
	}
	saved := c.pendingArgs
	for i := range w.segs {
		c.compileSeg(&w.segs[i])
		c.pendingArgs++
	}
	c.pendingArgs = saved
	c.emit(vmOp{code: opConcat, a: int32(len(w.segs))})
}

func (c *compiler) compileSeg(seg *segment) {
	switch seg.kind {
	case segLit:
		c.emit(vmOp{code: opArgConst, a: c.constRef(seg.text)})
	case segVar:
		if slot := c.varRef(seg.text); slot >= 0 {
			c.emit(vmOp{code: opLoadSlot, a: c.constRef(seg.text), b: slot})
		} else {
			c.emit(vmOp{code: opArgVar, a: c.constRef(seg.text)})
		}
	case segCmd:
		// Inline the substitution's commands into this program: the hot
		// `set v [host_cmd ...]` shape then costs zero nested VM entries.
		// The depth ops account the substitution as one level of nesting,
		// and the depth region undoes it on the error path.
		if c.inline >= maxInlineDepth {
			c.emit(vmOp{code: opArgScript, a: c.scriptRef(seg.script)})
			return
		}
		c.inline++
		start := c.emit(vmOp{code: opDepth})
		if len(seg.script.cmds) == 0 {
			c.emit(vmOp{code: opResult, a: c.constRef("")})
		} else {
			c.compileCmds(seg.script.cmds)
		}
		end := c.pc()
		c.emit(vmOp{code: opArgResult})
		c.inline--
		c.addRegion(region{start: start, end: end, isDepth: true})
	}
}

// emitGuard emits the shadow check of an inlined construct and, behind it,
// the generic call that runs instead when the name is shadowed (see
// Interp.cmdShadowed): the command's words as constants, except word dyn
// (>= 0), which the caller compiled before the guard and the call pops, so
// no word is compiled twice. An unshadowed construct jumps from the guard
// straight to the inline code that follows. The returned jump leaves the
// generic call; the caller points it at the construct's end.
func (c *compiler) emitGuard(cmd *command, kind uint8, dyn int32) int32 {
	g := c.emit(vmOp{code: opGuard, kind: kind})
	args := make([]string, len(cmd.words))
	for i := range cmd.words {
		if int32(i) != dyn {
			args[i], _ = constWord(&cmd.words[i])
		}
	}
	c.emit(vmOp{code: opCallShadow, line: int32(cmd.line), a: c.argListRef(args), c: dyn})
	exit := c.emit(vmOp{code: opJump})
	c.patchB(g, c.pc())
	return exit
}

// patchExit points a guard's exit jump at the construct's end.
func (c *compiler) patchExit(exit, end int32) { c.prog.ops[exit].a = end }

// trySet inlines the two-argument `set name value` when the target name is
// a static literal with a slot: the value word compiles as an ordinary
// argument ahead of the guard, as every word is evaluated before its
// command is looked up, and opStoreSlot moves it into the slot. One-argument
// reads and dynamic names keep generic dispatch.
func (c *compiler) trySet(cmd *command) bool {
	if len(cmd.words) != 3 {
		return false
	}
	name, ok := constWord(&cmd.words[1])
	if !ok {
		return false
	}
	slot := c.varRef(name)
	if slot < 0 {
		return false
	}
	c.compileArg(&cmd.words[2])
	exit := c.emitGuard(cmd, kindSet, 2)
	c.emit(vmOp{code: opStoreSlot, line: int32(cmd.line), a: c.constRef(name), b: slot})
	c.patchExit(exit, c.pc())
	return true
}

// tryIncr inlines `incr name ?delta?` for a slotted static name and a
// literal integer delta that fits int32. Non-integer deltas fall back to
// the generic call, which owns that error's text.
func (c *compiler) tryIncr(cmd *command) bool {
	if len(cmd.words) != 2 && len(cmd.words) != 3 {
		return false
	}
	name, ok := constWord(&cmd.words[1])
	if !ok {
		return false
	}
	delta := int64(1)
	if len(cmd.words) == 3 {
		ds, ok := constWord(&cmd.words[2])
		if !ok {
			return false
		}
		var err error
		delta, err = parseInt32(ds)
		if err != nil {
			return false
		}
	}
	slot := c.varRef(name)
	if slot < 0 {
		return false
	}
	exit := c.emitGuard(cmd, kindIncr, -1)
	c.emit(vmOp{code: opIncrSlot, line: int32(cmd.line), a: c.constRef(name), b: slot, c: int32(delta)})
	c.patchExit(exit, c.pc())
	return true
}

func (c *compiler) tryExpr(cmd *command) bool {
	args, ok := constArgs(cmd)
	if !ok || len(args) < 2 {
		return false
	}
	src := strings.Join(args[1:], " ")
	exit := c.emitGuard(cmd, kindExpr, -1)
	c.emit(vmOp{code: opExpr, line: int32(cmd.line), a: c.exprRefIdx(src)})
	c.patchExit(exit, c.pc())
	return true
}

func (c *compiler) tryWhile(cmd *command) bool {
	if len(cmd.words) != 3 {
		return false
	}
	cond, ok1 := constWord(&cmd.words[1])
	body, ok2 := constWord(&cmd.words[2])
	if !ok1 || !ok2 {
		return false
	}
	bodyScript, err := ParseCached(body)
	if err != nil {
		return false // generic call reproduces the parse error
	}
	sh := c.emitGuard(cmd, kindWhile, -1)
	slot := c.newSlot()
	line := int32(cmd.line)
	top := c.pc()
	cj := c.emit(vmOp{code: opCondJump, line: line, a: c.exprRefIdx(cond), c: slot})
	c.inline++
	bodyStart := c.pc()
	c.compileCmds(bodyScript.cmds)
	bodyEnd := c.pc()
	c.inline--
	bot := c.emit(vmOp{code: opLoopBottom, line: line, a: slot, b: top})
	exit := c.emit(vmOp{code: opResult, a: c.constRef("")})
	end := c.pc()
	c.patchB(cj, exit)
	c.patchExit(sh, end)
	c.addRegion(region{start: bodyStart, end: bodyEnd, isLoop: true, breakPC: exit, contPC: bot, scratch: c.pendingArgs})
	c.addRegion(region{start: top, end: exit, name: "while", line: line})
	return true
}

func (c *compiler) tryFor(cmd *command) bool {
	if len(cmd.words) != 5 {
		return false
	}
	var lit [4]string
	for i := 0; i < 4; i++ {
		s, ok := constWord(&cmd.words[i+1])
		if !ok {
			return false
		}
		lit[i] = s
	}
	initScript, err := ParseCached(lit[0])
	if err != nil {
		return false
	}
	stepScript, err := ParseCached(lit[2])
	if err != nil {
		return false
	}
	bodyScript, err := ParseCached(lit[3])
	if err != nil {
		return false
	}
	sh := c.emitGuard(cmd, kindFor, -1)
	slot := c.newSlot()
	line := int32(cmd.line)
	c.inline++
	initStart := c.pc()
	c.compileCmds(initScript.cmds)
	top := c.pc()
	cj := c.emit(vmOp{code: opCondJump, line: line, a: c.exprRefIdx(lit[1]), c: slot})
	bodyStart := c.pc()
	c.compileCmds(bodyScript.cmds)
	bodyEnd := c.pc()
	stepStart := c.pc()
	c.compileCmds(stepScript.cmds)
	c.inline--
	c.emit(vmOp{code: opLoopBottom, line: line, a: slot, b: top})
	exit := c.emit(vmOp{code: opResult, a: c.constRef("")})
	end := c.pc()
	c.patchB(cj, exit)
	c.patchExit(sh, end)
	c.addRegion(region{start: bodyStart, end: bodyEnd, isLoop: true, breakPC: exit, contPC: stepStart, scratch: c.pendingArgs})
	c.addRegion(region{start: initStart, end: exit, name: "for", line: line})
	return true
}

func (c *compiler) tryForeach(cmd *command) bool {
	if len(cmd.words) != 4 {
		return false
	}
	varName, ok1 := constWord(&cmd.words[1])
	body, ok2 := constWord(&cmd.words[3])
	if !ok1 || !ok2 {
		return false
	}
	bodyScript, err := ParseCached(body)
	if err != nil {
		return false
	}
	// The list word may be dynamic: it is evaluated once, before the guard,
	// for whichever arm runs. Word errors stay undecorated, so it sits
	// outside the decor region.
	c.compileArg(&cmd.words[2])
	sh := c.emitGuard(cmd, kindForeach, 2)
	slot := c.newSlot()
	line := int32(cmd.line)
	initPC := c.emit(vmOp{code: opForeachInit, line: line, a: slot})
	top := c.emit(vmOp{code: opForeachNext, line: line, a: slot, c: c.constRef(varName), d: c.varRef(varName)})
	c.inline++
	bodyStart := c.pc()
	c.compileCmds(bodyScript.cmds)
	bodyEnd := c.pc()
	c.inline--
	bot := c.emit(vmOp{code: opLoopBottom, line: line, a: slot, b: top})
	exit := c.emit(vmOp{code: opResult, a: c.constRef("")})
	end := c.pc()
	c.patchB(top, exit)
	c.patchExit(sh, end)
	c.addRegion(region{start: bodyStart, end: bodyEnd, isLoop: true, breakPC: exit, contPC: bot, scratch: c.pendingArgs})
	c.addRegion(region{start: initPC, end: exit, name: "foreach", line: line})
	return true
}

func (c *compiler) tryIf(cmd *command) bool {
	args, ok := constArgs(cmd)
	if !ok {
		return false
	}
	args = args[1:]
	type branch struct {
		cond    string
		body    *Script
		hasCond bool
	}
	var branches []branch
	i := 0
	for {
		if i+1 >= len(args) {
			return false // malformed: generic call owns the error text
		}
		body, err := ParseCached(args[i+1])
		if err != nil {
			return false
		}
		branches = append(branches, branch{cond: args[i], body: body, hasCond: true})
		i += 2
		if i >= len(args) {
			break
		}
		switch args[i] {
		case "elseif":
			i++
		case "else":
			if i+1 != len(args)-1 {
				return false
			}
			body, err := ParseCached(args[i+1])
			if err != nil {
				return false
			}
			branches = append(branches, branch{body: body})
			i = len(args)
		default:
			return false
		}
		if i >= len(args) {
			break
		}
	}
	sh := c.emitGuard(cmd, kindIf, -1)
	line := int32(cmd.line)
	start := c.pc()
	emptyIdx := c.constRef("")
	var endJumps []int32
	c.inline++
	for _, b := range branches {
		var cj int32 = -1
		if b.hasCond {
			cj = c.emit(vmOp{code: opCondJump, line: line, a: c.exprRefIdx(b.cond), c: -1})
		}
		if len(b.body.cmds) == 0 {
			c.emit(vmOp{code: opResult, a: emptyIdx})
		} else {
			c.compileCmds(b.body.cmds)
		}
		if b.hasCond {
			endJumps = append(endJumps, c.emit(vmOp{code: opJump}))
			c.patchB(cj, c.pc())
		}
	}
	c.inline--
	// All conditions false with no else: the if evaluates to "".
	if branches[len(branches)-1].hasCond {
		c.emit(vmOp{code: opResult, a: emptyIdx})
	}
	end := c.pc()
	for _, j := range endJumps {
		c.prog.ops[j].a = end
	}
	c.patchExit(sh, end)
	c.addRegion(region{start: start, end: end, name: "if", line: line})
	return true
}
