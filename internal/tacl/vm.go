package tacl

import (
	"fmt"
	"strconv"
	"strings"
)

// Register VM. runVM executes the flat op stream produced by bytecode.go.
// Arguments accumulate in the interpreter's shared argScratch arena (no
// per-command []string), dispatch goes through interned symbols into the
// table snapshot's dense array, and control flow is pc manipulation instead
// of sentinel-error unwinding — except where the language's semantics are
// themselves error-based (break/continue/park/jump crossing proc or [cmd]
// boundaries), which the region table reproduces exactly.

// vmFrame holds per-activation loop state: step marks for no-progress
// charging, plus foreach element lists and cursors. One unified slot space,
// sized by the program's slot count; pooled per interpreter.
type vmFrame struct {
	marks []int
	lists [][]string
	idxs  []int
}

func (in *Interp) getVMFrame(n int) *vmFrame {
	var fr *vmFrame
	if k := len(in.freeVMFrames); k > 0 {
		fr = in.freeVMFrames[k-1]
		in.freeVMFrames[k-1] = nil
		in.freeVMFrames = in.freeVMFrames[:k-1]
	} else {
		fr = &vmFrame{}
	}
	if cap(fr.marks) < n {
		fr.marks = make([]int, n)
		fr.lists = make([][]string, n)
		fr.idxs = make([]int, n)
	} else {
		fr.marks = fr.marks[:n]
		fr.lists = fr.lists[:n]
		fr.idxs = fr.idxs[:n]
	}
	return fr
}

func (in *Interp) putVMFrame(fr *vmFrame) {
	// Drop element references so a pooled interpreter never pins a prior
	// activation's foreach lists.
	for i := range fr.lists {
		fr.lists[i] = nil
	}
	in.freeVMFrames = append(in.freeVMFrames, fr)
}

// runVM executes a compiled program and returns the last command's result.
func (in *Interp) runVM(p *program) (string, error) {
	var fr *vmFrame
	if p.numSlots > 0 {
		fr = in.getVMFrame(p.numSlots)
		defer in.putVMFrame(fr)
	}
	// Resolve the current variable scope once: commands that swap frames
	// (proc calls, uplevel) restore them before returning control to this
	// loop, so the scope pointer is stable for the whole run. The slot fast
	// path is valid only when the scope's bound layout is this very program
	// (sc.diverted is re-read per op — a `global`/`upvar` mid-run downgrades
	// the remaining ops to the full resolver). The first variable-bearing
	// program to run at top level binds the activation's global layout.
	var sc *varScope
	if len(in.frames) == 0 {
		if in.gscope.prog == nil && len(p.varNames) > 0 {
			in.bindGlobalScope(p)
		}
		sc = &in.gscope
	} else {
		sc = &in.frames[len(in.frames)-1].varScope
	}
	slotOK := sc.prog == p.layout
	base := len(in.argScratch)
	defer func() { in.argScratch = in.argScratch[:base] }()
	var result string
	ops := p.ops
	pc := 0
	for pc < len(ops) {
		op := &ops[pc]
		var err error
		switch op.code {
		case opStep:
			// Inlined chargeStep hot path: plain accounting when neither
			// the budget, the yield cadence (nextYield proves the modulo
			// can't hit), nor a hook can fire on this step. Any slow
			// condition re-runs the shared chargeStep from the
			// pre-increment state so its behavior stays the single source
			// of truth.
			in.Steps++
			if (in.MaxSteps > 0 && in.Steps > in.MaxSteps) ||
				in.Steps >= in.nextYield || in.StepHook != nil {
				in.Steps--
				err = in.chargeStep(int(op.line))
				if in.Steps >= in.nextYield {
					if in.YieldEvery > 0 && in.Yield != nil {
						in.nextYield = in.Steps - in.Steps%in.YieldEvery + in.YieldEvery
					} else {
						in.nextYield = int(^uint(0) >> 1)
					}
				}
			}
		case opArgConst:
			in.argScratch = append(in.argScratch, p.consts[op.a])
		case opArgVar:
			var v string
			v, err = in.getVar(p.consts[op.a])
			if err == nil {
				in.argScratch = append(in.argScratch, v)
			}
		case opArgScript:
			in.depth++
			if in.depth > maxDepth {
				in.depth--
				err = ErrDepth
			} else {
				var v string
				v, err = in.EvalScript(p.scripts[op.a])
				in.depth--
				if err == nil {
					in.argScratch = append(in.argScratch, v)
				}
			}
		case opConcat:
			// strings.Join sizes the result exactly: one allocation.
			n := len(in.argScratch) - int(op.a)
			in.argScratch = append(in.argScratch[:n], strings.Join(in.argScratch[n:], ""))
		case opCall:
			argc := int(op.b)
			args := in.argScratch[len(in.argScratch)-argc:]
			var res string
			res, err = in.dispatchStatic(p.syms[op.a], args, int(op.line))
			in.argScratch = in.argScratch[:len(in.argScratch)-argc]
			if err == nil {
				result = res
			}
		case opCallConst:
			var res string
			res, err = in.dispatchStatic(p.syms[op.b], p.argLists[op.a], int(op.line))
			if err == nil {
				result = res
			}
		case opCallDyn:
			argc := int(op.a)
			args := in.argScratch[len(in.argScratch)-argc:]
			var res string
			res, err = in.dispatchDyn(args, int(op.line))
			in.argScratch = in.argScratch[:len(in.argScratch)-argc]
			if err == nil {
				result = res
			}
		case opLoadSlot:
			if slotOK && !sc.diverted {
				if sc.meta[op.b]&slotLive != 0 {
					in.argScratch = append(in.argScratch, sc.slots[op.b])
				} else {
					err = fmt.Errorf("tacl: no such variable %q", p.consts[op.a])
				}
			} else {
				var v string
				v, err = in.getVar(p.consts[op.a])
				if err == nil {
					in.argScratch = append(in.argScratch, v)
				}
			}
		case opStoreSlot:
			n := len(in.argScratch) - 1
			v := in.argScratch[n]
			in.argScratch = in.argScratch[:n]
			if slotOK && !sc.diverted {
				sc.slots[op.b] = v
				sc.meta[op.b] = slotLive
			} else {
				in.setVar(p.consts[op.a], v)
			}
			result = v
		case opIncrSlot:
			var res string
			res, err = in.vmIncrSlot(p, sc, slotOK, op)
			if err == nil {
				result = res
			}
		case opGuard:
			if !in.cmdShadowed(op.kind) {
				pc = int(op.b)
				continue
			}
		case opCallShadow:
			args := p.argLists[op.a]
			n := len(in.argScratch)
			if op.c >= 0 {
				// The construct's one dynamic word is on the stack top: lay
				// the words out above it with that value in place.
				n--
				v := in.argScratch[n]
				in.argScratch = append(in.argScratch, args...)
				args = in.argScratch[n+1:]
				args[op.c] = v
			}
			var res string
			res, err = in.dispatchDyn(args, int(op.line))
			in.argScratch = in.argScratch[:n]
			if err == nil {
				result = res
			}
		case opJump:
			pc = int(op.a)
			continue
		case opCondJump:
			if op.c >= 0 {
				fr.marks[op.c] = in.Steps
			}
			var ok bool
			ok, err = in.vmCondEval(p.exprs[op.a])
			if err == nil && !ok {
				pc = int(op.b)
				continue
			}
		case opLoopBottom:
			// An iteration that evaluated no commands (empty body,
			// command-free condition) still burns one step: without this a
			// hostile agent could spin `while {1} {}` for free under guard
			// metering. Mirrors the same charge in the loop builtins.
			if fr.marks[op.a] == in.Steps {
				err = in.chargeStep(int(op.line))
			}
			if err == nil {
				pc = int(op.b)
				continue
			}
		case opForeachInit:
			n := len(in.argScratch)
			var elems []string
			elems, err = ParseList(in.argScratch[n-1])
			in.argScratch = in.argScratch[:n-1]
			if err == nil {
				fr.lists[op.a] = elems
				fr.idxs[op.a] = 0
			}
		case opForeachNext:
			i := fr.idxs[op.a]
			elems := fr.lists[op.a]
			if i >= len(elems) {
				pc = int(op.b)
				continue
			}
			fr.marks[op.a] = in.Steps
			if op.d >= 0 && slotOK && !sc.diverted {
				sc.slots[op.d] = elems[i]
				sc.meta[op.d] = slotLive
			} else {
				in.setVar(p.consts[op.c], elems[i])
			}
			fr.idxs[op.a] = i + 1
		case opExpr:
			var res string
			res, err = vmExprEval(in, p.exprs[op.a])
			if err != nil && !isControl(err) {
				err = decorate(err, "expr", int(op.line))
			}
			if err == nil {
				result = res
			}
		case opResult:
			result = p.consts[op.a]
		case opDepth:
			in.depth++
			if in.depth > maxDepth {
				err = ErrDepth // the depth region undoes the increment
			}
		case opArgResult:
			in.depth--
			in.argScratch = append(in.argScratch, result)
		}
		if err != nil {
			npc, scratch, nerr := p.recoverErr(in, pc, err)
			if nerr != nil {
				in.argScratch = in.argScratch[:base]
				return "", nerr
			}
			// Resuming inside the program: keep the enclosing pending call
			// args (see region.scratch), drop anything pushed above them.
			in.argScratch = in.argScratch[:base+scratch]
			pc = npc
			continue
		}
		pc++
	}
	return result, nil
}

// recoverErr walks the regions containing pc from innermost outward: loop
// regions consume break/continue (returning the resume pc and its arg-stack
// watermark), depth regions undo their opDepth increment as the error leaves
// the inlined [cmd], and decor regions add the enclosing construct's
// name-and-line frame to non-control errors — the exact composition the
// nested loop builtins produce. Cold path.
func (p *program) recoverErr(in *Interp, pc int, err error) (int, int, error) {
	// Regions are stored innermost first (see sortRegions), so walking them
	// in order and skipping those not containing pc visits exactly the
	// enclosing regions from the inside out, with no per-error allocation.
	for i := range p.regions {
		r := &p.regions[i]
		if int32(pc) < r.start || int32(pc) >= r.end {
			continue
		}
		switch {
		case r.isLoop:
			// Exact sentinel identity, as the loop builtins test: a
			// break wrapped by expr's %w is an ordinary error here.
			if err == errBreak {
				return int(r.breakPC), int(r.scratch), nil
			}
			if err == errContinue {
				return int(r.contPC), int(r.scratch), nil
			}
		case r.isDepth:
			in.depth--
		default:
			if !isControl(err) {
				err = decorate(err, r.name, int(r.line))
			}
		}
	}
	return -1, 0, err
}

// cmdShadowed reports whether an inlined construct's name no longer
// resolves to the canonical builtin: a script proc, a per-activation
// Register override, or a table snapshot whose entry was replaced. Any of
// those sends the guard op down the generic call (opCallShadow). The verdict per
// kind is cached in canonMask; proc definition and Register nil canonState
// to force a rebuild, and a table Register invalidates by publishing a new
// snapshot pointer.
func (in *Interp) cmdShadowed(kind uint8) bool {
	st := in.table.state.Load()
	if st != in.canonState {
		mask := st.canon
		for k := uint8(0); k < numCanonKinds; k++ {
			name := canonNames[k]
			if in.procs != nil {
				if _, ok := in.procs[name]; ok {
					mask &^= 1 << k
					continue
				}
			}
			if in.commands != nil {
				if _, ok := in.commands[name]; ok {
					mask &^= 1 << k
				}
			}
		}
		in.canonMask, in.canonState = mask, st
	}
	return in.canonMask&(1<<kind) == 0
}

// vmIncrSlot executes an inlined incr: slot storage on the fast path, the
// unified resolver otherwise, with cmdIncr's exact error text and the
// name-and-line decoration generic dispatch would add.
func (in *Interp) vmIncrSlot(p *program, sc *varScope, slotOK bool, op *vmOp) (string, error) {
	name := p.consts[op.a]
	if slotOK && !sc.diverted {
		cur := "0"
		if sc.meta[op.b]&slotLive != 0 {
			cur = sc.slots[op.b]
		}
		n, perr := strconv.ParseInt(cur, 10, 64)
		if perr != nil {
			return "", decorate(fmt.Errorf("expected integer in %q, got %q", name, cur), "incr", int(op.line))
		}
		v := in.intText(n + int64(op.c))
		sc.slots[op.b] = v
		sc.meta[op.b] = slotLive
		return v, nil
	}
	v, err := in.incrVar(name, int64(op.c))
	if err != nil && !isControl(err) {
		return "", decorate(err, "incr", int(op.line))
	}
	return v, err
}

// dispatchStatic calls a symbol-resolved command in dispatch order: procs,
// per-interp overrides, then the table snapshot's dense array (map
// fallback covers symbols interned after the snapshot was built). A symbol
// no proc definition has marked cannot name a proc, so host and builtin
// calls skip hashing into procs. Proc and control errors propagate raw;
// command errors get the name-and-line decoration.
func (in *Interp) dispatchStatic(sym *symbol, args []string, line int) (string, error) {
	if in.procs != nil && (sym.isProc.Load() || in.procsUnmarked) {
		if pd, ok := in.procs[sym.name]; ok {
			return in.callProc(pd, args, line)
		}
	}
	var fn CmdFunc
	if in.commands != nil {
		fn = in.commands[sym.name]
	}
	if fn == nil {
		st := in.table.state.Load()
		if int(sym.id) < len(st.dense) {
			fn = st.dense[sym.id]
		}
		if fn == nil {
			fn = st.cmds[sym.name]
		}
	}
	if fn == nil {
		return "", fmt.Errorf("tacl: line %d: unknown command %q", line, sym.name)
	}
	in.curLine = line
	res, err := fn(in, args)
	if err != nil && !isControl(err) {
		return "", decorate(err, sym.name, line)
	}
	return res, err
}

// dispatchDyn resolves a command whose name is args[0], looked up at call
// time: the VM's dynamic calls and the generic calls of shadowed
// constructs.
func (in *Interp) dispatchDyn(args []string, line int) (string, error) {
	name := args[0]
	if pd, ok := in.procs[name]; ok {
		return in.callProc(pd, args[1:], line)
	}
	fn, ok := in.commands[name]
	if !ok {
		fn, ok = in.table.lookup(name)
	}
	if !ok {
		return "", fmt.Errorf("tacl: line %d: unknown command %q", line, name)
	}
	in.curLine = line
	res, err := fn(in, args[1:])
	if err != nil && !isControl(err) {
		return "", decorate(err, name, line)
	}
	return res, err
}

// vmCondEval evaluates a loop/branch condition to a boolean. Errors stay
// raw: the construct's decor region frames them, as the loop builtins
// return condition errors undecorated to their dispatcher.
func (in *Interp) vmCondEval(ref *exprRef) (bool, error) {
	if ref.isConst {
		return ref.constTruthy, ref.constTruthyErr
	}
	if ref.ints != nil {
		// An integer's text is truthy exactly when the integer is nonzero.
		if v, ok := ref.ints.run(in.curScope()); ok {
			return v != 0, nil
		}
	}
	// Truthiness always goes through Truthy on the result TEXT — not
	// exprVal.truthy(), whose strVal trims whitespace before the numeric
	// parse and would accept conditions like "  2 " that Truthy rejects.
	v, err := vmExprEval(in, ref)
	if err != nil {
		return false, err
	}
	return Truthy(v)
}

// vmExprEval mirrors evalExpr for a precompiled operand: folded constant,
// integer program, lone [cmd] substitution, or compiled AST with the
// standard "expr %q" wrap. A malformed operand returns its compile error
// and runs nothing.
func vmExprEval(in *Interp, ref *exprRef) (string, error) {
	if ref.err != nil {
		return "", ref.err
	}
	if ref.isConst {
		return ref.constVal, nil
	}
	if ref.ints != nil {
		if v, ok := ref.ints.run(in.curScope()); ok {
			return in.intText(v), nil
		}
	}
	if ref.cmd != nil {
		res, err := in.runVM(ref.cmd.prog)
		if err != nil {
			return "", fmt.Errorf("expr %q: %w", ref.src, err)
		}
		return res, nil
	}
	v, err := ref.prog.root.eval(in)
	if err != nil {
		return "", fmt.Errorf("expr %q: %w", ref.src, err)
	}
	return in.exprText(v), nil
}
