package tacl

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// registerBuiltinsInto fills a command map with the full builtin set; the
// shared builtin Table is built from it exactly once (see builtinTable).
func registerBuiltinsInto(dst map[string]CmdFunc) {
	b := map[string]CmdFunc{
		"set":      cmdSet,
		"unset":    cmdUnset,
		"incr":     cmdIncr,
		"append":   cmdAppend,
		"global":   cmdGlobal,
		"expr":     cmdExpr,
		"if":       cmdIf,
		"while":    cmdWhile,
		"for":      cmdFor,
		"foreach":  cmdForeach,
		"proc":     cmdProc,
		"return":   cmdReturn,
		"break":    cmdBreak,
		"continue": cmdContinue,
		"error":    cmdError,
		"catch":    cmdCatch,
		"eval":     cmdEval,
		"puts":     cmdPuts,
		"list":     cmdList,
		"lindex":   cmdLindex,
		"llength":  cmdLlength,
		"lappend":  cmdLappend,
		"lrange":   cmdLrange,
		"lsearch":  cmdLsearch,
		"lreverse": cmdLreverse,
		"lsort":    cmdLsort,
		"join":     cmdJoin,
		"split":    cmdSplit,
		"concat":   cmdConcat,
		"string":   cmdString,
		"format":   cmdFormat,
		"info":     cmdInfo,
	}
	for name, fn := range b {
		dst[name] = fn
	}
	for name, fn := range extraBuiltins {
		dst[name] = fn
	}
}

func arity(args []string, min, max int, usage string) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		return fmt.Errorf("wrong # args: should be %q", usage)
	}
	return nil
}

func cmdSet(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "set varName ?value?"); err != nil {
		return "", err
	}
	if len(args) == 1 {
		return in.getVar(args[0])
	}
	in.setVar(args[0], args[1])
	return args[1], nil
}

func cmdUnset(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "unset varName ?varName ...?"); err != nil {
		return "", err
	}
	for _, name := range args {
		if err := in.unsetVar(name); err != nil {
			return "", err
		}
	}
	return "", nil
}

func cmdIncr(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "incr varName ?increment?"); err != nil {
		return "", err
	}
	delta := int64(1)
	if len(args) == 2 {
		var err error
		delta, err = strconv.ParseInt(args[1], 10, 64)
		if err != nil {
			return "", fmt.Errorf("expected integer increment, got %q", args[1])
		}
	}
	return in.incrVar(args[0], delta)
}

// incrVar is the shared increment core behind cmdIncr and the VM's inlined
// opIncrSlot slow path.
func (in *Interp) incrVar(name string, delta int64) (string, error) {
	cur := "0"
	if in.varExists(name) {
		var err error
		cur, err = in.getVar(name)
		if err != nil {
			return "", err
		}
	}
	n, err := strconv.ParseInt(cur, 10, 64)
	if err != nil {
		return "", fmt.Errorf("expected integer in %q, got %q", name, cur)
	}
	v := in.intText(n + delta)
	in.setVar(name, v)
	return v, nil
}

func cmdAppend(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "append varName ?value ...?"); err != nil {
		return "", err
	}
	var sb strings.Builder
	if in.varExists(args[0]) {
		v, err := in.getVar(args[0])
		if err != nil {
			return "", err
		}
		sb.WriteString(v)
	}
	for _, a := range args[1:] {
		sb.WriteString(a)
	}
	in.setVar(args[0], sb.String())
	return sb.String(), nil
}

func cmdGlobal(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "global varName ?varName ...?"); err != nil {
		return "", err
	}
	f := in.currentFrame()
	if f == nil {
		return "", nil // at top level all variables are global already
	}
	for _, name := range args {
		f.global[name] = true
	}
	// Slot fast paths assume every name in the frame's layout lives in its
	// slot array; a global link redirects resolution elsewhere, so divert
	// this frame's slot ops to the full resolver for the rest of its life.
	f.diverted = true
	return "", nil
}

func cmdExpr(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "expr arg ?arg ...?"); err != nil {
		return "", err
	}
	return evalExpr(in, strings.Join(args, " "))
}

func cmdIf(in *Interp, args []string) (string, error) {
	// if cond body ?elseif cond body ...? ?else body?
	i := 0
	for {
		if i+1 >= len(args) {
			return "", errors.New(`wrong # args: should be "if cond body ?elseif cond body? ?else body?"`)
		}
		ok, err := exprTruthy(in, args[i])
		if err != nil {
			return "", err
		}
		if ok {
			return in.evalBody(args, i+1)
		}
		i += 2
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
		case "else":
			if i+1 != len(args)-1 {
				return "", errors.New("extra args after else body")
			}
			return in.evalBody(args, i+1)
		default:
			return "", fmt.Errorf("expected elseif or else, got %q", args[i])
		}
	}
}

func cmdWhile(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "while cond body"); err != nil {
		return "", err
	}
	line := in.curLine
	for {
		s0 := in.Steps
		ok, err := exprTruthy(in, args[0])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		if _, err := in.evalBody(args, 1); err != nil {
			if err == errBreak {
				return "", nil
			}
			if err != errContinue {
				return "", err
			}
		}
		// An iteration that evaluated no commands (empty body, command-free
		// condition) still burns one step: without this a hostile agent
		// could spin `while {1} {}` for free under guard metering. Mirrored
		// by the VM's loop-bottom op.
		if in.Steps == s0 {
			if err := in.chargeStep(line); err != nil {
				return "", err
			}
		}
	}
}

func cmdFor(in *Interp, args []string) (string, error) {
	if err := arity(args, 4, 4, "for init cond step body"); err != nil {
		return "", err
	}
	line := in.curLine
	if _, err := in.evalBody(args, 0); err != nil {
		return "", err
	}
	for {
		s0 := in.Steps
		ok, err := exprTruthy(in, args[1])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		if _, err := in.evalBody(args, 3); err != nil {
			if err == errBreak {
				return "", nil
			}
			if err != errContinue {
				return "", err
			}
		}
		if _, err := in.evalBody(args, 2); err != nil {
			return "", err
		}
		// Charge spin iterations that evaluated no commands; see cmdWhile.
		if in.Steps == s0 {
			if err := in.chargeStep(line); err != nil {
				return "", err
			}
		}
	}
}

func cmdForeach(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "foreach varName list body"); err != nil {
		return "", err
	}
	line := in.curLine
	elems, err := ParseList(args[1])
	if err != nil {
		return "", err
	}
	for _, e := range elems {
		s0 := in.Steps
		in.setVar(args[0], e)
		if _, err := in.evalBody(args, 2); err != nil {
			if err == errBreak {
				return "", nil
			}
			if err != errContinue {
				return "", err
			}
		}
		// Charge iterations whose body evaluated no commands; see cmdWhile.
		if in.Steps == s0 {
			if err := in.chargeStep(line); err != nil {
				return "", err
			}
		}
	}
	return "", nil
}

func cmdProc(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "proc name params body"); err != nil {
		return "", err
	}
	body, err := ParseCached(args[2])
	if err != nil {
		if _, perr := parseParams(args[1]); perr != nil {
			return "", perr // a bad parameter list is reported first
		}
		return "", err
	}
	sig := body.sig.Load()
	if sig == nil || sig.spec != args[1] {
		if sig, err = newProcSig(args[1], body); err != nil {
			return "", err
		}
		body.sig.Store(sig)
	}
	if in.procs == nil {
		in.procs = make(map[string]*procDef, 8)
	}
	in.procs[args[0]] = &procDef{name: args[0], body: body, sig: sig}
	in.canonState = nil // the new proc may shadow an inlinable builtin
	// Static call sites consult procs only for symbols marked as proc names
	// (see dispatchStatic). The mark is process-wide and sticky: it costs
	// other interpreters one map probe for this name, never a wrong call.
	if sym := internScriptSym(args[0]); sym == nil {
		in.procsUnmarked = true
	} else if !sym.isProc.Load() {
		sym.isProc.Store(true)
	}
	return "", nil
}

func parseParams(spec string) ([]procParam, error) {
	items, err := ParseList(spec)
	if err != nil {
		return nil, err
	}
	params := make([]procParam, 0, len(items))
	for i, item := range items {
		parts, err := ParseList(item)
		if err != nil {
			return nil, err
		}
		switch {
		case len(parts) == 1 && parts[0] == "args" && i == len(items)-1:
			params = append(params, procParam{name: "args", variadic: true})
		case len(parts) == 1:
			params = append(params, procParam{name: parts[0]})
		case len(parts) == 2:
			params = append(params, procParam{name: parts[0], def: parts[1], hasDef: true})
		default:
			return nil, fmt.Errorf("bad parameter spec %q", item)
		}
	}
	return params, nil
}

func cmdReturn(in *Interp, args []string) (string, error) {
	if err := arity(args, 0, 1, "return ?value?"); err != nil {
		return "", err
	}
	in.retVal = ""
	if len(args) == 1 {
		in.retVal = args[0]
	}
	return "", errReturn
}

func cmdBreak(in *Interp, args []string) (string, error)    { return "", errBreak }
func cmdContinue(in *Interp, args []string) (string, error) { return "", errContinue }

// userError carries a script-raised error message verbatim, so catch
// observes exactly the string passed to the error command.
type userError struct{ msg string }

func (e *userError) Error() string { return e.msg }

func cmdError(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "error message"); err != nil {
		return "", err
	}
	return "", &userError{msg: args[0]}
}

func cmdCatch(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "catch body ?varName?"); err != nil {
		return "", err
	}
	res, err := in.EvalCached(args[0])
	if err != nil {
		// Control-flow signals pass through; catch only traps errors, and
		// budget exhaustion must not be catchable or a hostile agent could
		// outlive its allotment.
		if isControl(err) || errors.Is(err, ErrBudget) {
			return "", err
		}
		if len(args) == 2 {
			in.setVar(args[1], err.Error())
		}
		return "1", nil
	}
	if len(args) == 2 {
		in.setVar(args[1], res)
	}
	return "0", nil
}

func cmdEval(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "eval script ?script ...?"); err != nil {
		return "", err
	}
	in.depth++
	if in.depth > maxDepth {
		in.depth--
		return "", ErrDepth
	}
	defer func() { in.depth-- }()
	return in.EvalCached(strings.Join(args, " "))
}

func cmdPuts(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "puts ?-nonewline? string"); err != nil {
		return "", err
	}
	nl := "\n"
	s := args[0]
	if len(args) == 2 {
		if args[0] != "-nonewline" {
			return "", fmt.Errorf("bad option %q", args[0])
		}
		nl, s = "", args[1]
	}
	fmt.Fprint(in.Out, s+nl)
	return "", nil
}

func cmdList(in *Interp, args []string) (string, error) {
	return FormatList(args), nil
}

func listIndex(idxStr string, n int) (int, error) {
	if idxStr == "end" {
		return n - 1, nil
	}
	if rest, ok := strings.CutPrefix(idxStr, "end-"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil {
			return 0, fmt.Errorf("bad index %q", idxStr)
		}
		return n - 1 - k, nil
	}
	i, err := strconv.Atoi(idxStr)
	if err != nil {
		return 0, fmt.Errorf("bad index %q", idxStr)
	}
	return i, nil
}

func cmdLindex(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "lindex list index"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	i, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(elems) {
		return "", nil // Tcl returns empty for out-of-range lindex
	}
	return elems[i], nil
}

func cmdLlength(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "llength list"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	return strconv.Itoa(len(elems)), nil
}

func cmdLappend(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "lappend varName ?value ...?"); err != nil {
		return "", err
	}
	cur := ""
	if in.varExists(args[0]) {
		var err error
		cur, err = in.getVar(args[0])
		if err != nil {
			return "", err
		}
	}
	elems, err := ParseList(cur)
	if err != nil {
		return "", err
	}
	elems = append(elems, args[1:]...)
	v := FormatList(elems)
	in.setVar(args[0], v)
	return v, nil
}

func cmdLrange(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "lrange list first last"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	first, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	last, err := listIndex(args[2], len(elems))
	if err != nil {
		return "", err
	}
	if first < 0 {
		first = 0
	}
	if last >= len(elems) {
		last = len(elems) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(elems[first : last+1]), nil
}

func cmdLsearch(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, 2, "lsearch list pattern"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	for i, e := range elems {
		if e == args[1] {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdLreverse(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 1, "lreverse list"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	for i, j := 0, len(elems)-1; i < j; i, j = i+1, j-1 {
		elems[i], elems[j] = elems[j], elems[i]
	}
	return FormatList(elems), nil
}

func cmdLsort(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "lsort ?-integer? list"); err != nil {
		return "", err
	}
	numeric := false
	lst := args[0]
	if len(args) == 2 {
		if args[0] != "-integer" {
			return "", fmt.Errorf("bad option %q", args[0])
		}
		numeric, lst = true, args[1]
	}
	elems, err := ParseList(lst)
	if err != nil {
		return "", err
	}
	if numeric {
		var convErr error
		sort.SliceStable(elems, func(i, j int) bool {
			a, err1 := strconv.ParseInt(elems[i], 10, 64)
			b, err2 := strconv.ParseInt(elems[j], 10, 64)
			if err1 != nil || err2 != nil {
				convErr = fmt.Errorf("expected integer in list")
			}
			return a < b
		})
		if convErr != nil {
			return "", convErr
		}
	} else {
		sort.Strings(elems)
	}
	return FormatList(elems), nil
}

func cmdJoin(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "join list ?separator?"); err != nil {
		return "", err
	}
	sep := " "
	if len(args) == 2 {
		sep = args[1]
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	return strings.Join(elems, sep), nil
}

func cmdSplit(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "split string ?chars?"); err != nil {
		return "", err
	}
	chars := " \t\n\r"
	if len(args) == 2 {
		chars = args[1]
	}
	if chars == "" {
		parts := make([]string, 0, len(args[0]))
		for _, r := range args[0] {
			parts = append(parts, string(r))
		}
		return FormatList(parts), nil
	}
	parts := strings.FieldsFunc(args[0], func(r rune) bool {
		return strings.ContainsRune(chars, r)
	})
	return FormatList(parts), nil
}

func cmdConcat(in *Interp, args []string) (string, error) {
	trimmed := make([]string, 0, len(args))
	for _, a := range args {
		a = strings.TrimSpace(a)
		if a != "" {
			trimmed = append(trimmed, a)
		}
	}
	return strings.Join(trimmed, " "), nil
}

func cmdString(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, -1, "string subcommand arg ?arg ...?"); err != nil {
		return "", err
	}
	sub := args[0]
	rest := args[1:]
	if out, handled, err := stringExtra(sub, rest); handled {
		return out, err
	}
	switch sub {
	case "length":
		return strconv.Itoa(len(rest[0])), nil
	case "tolower":
		return strings.ToLower(rest[0]), nil
	case "toupper":
		return strings.ToUpper(rest[0]), nil
	case "trim":
		return strings.TrimSpace(rest[0]), nil
	case "index":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string index string charIndex"`)
		}
		i, err := listIndex(rest[1], len(rest[0]))
		if err != nil {
			return "", err
		}
		if i < 0 || i >= len(rest[0]) {
			return "", nil
		}
		return string(rest[0][i]), nil
	case "range":
		if len(rest) != 3 {
			return "", errors.New(`wrong # args: should be "string range string first last"`)
		}
		first, err := listIndex(rest[1], len(rest[0]))
		if err != nil {
			return "", err
		}
		last, err := listIndex(rest[2], len(rest[0]))
		if err != nil {
			return "", err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(rest[0]) {
			last = len(rest[0]) - 1
		}
		if first > last {
			return "", nil
		}
		return rest[0][first : last+1], nil
	case "repeat":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string repeat string count"`)
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad count %q", rest[1])
		}
		// Compare without multiplying: n*len overflows for a hostile n.
		if len(rest[0]) > 0 && n > maxRepeatBytes/len(rest[0]) {
			return "", fmt.Errorf("string repeat %w", ErrTooLarge)
		}
		return strings.Repeat(rest[0], n), nil
	case "equal":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string equal a b"`)
		}
		return FormatBool(rest[0] == rest[1]), nil
	case "compare":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string compare a b"`)
		}
		return strconv.Itoa(strings.Compare(rest[0], rest[1])), nil
	case "first":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string first needle haystack"`)
		}
		return strconv.Itoa(strings.Index(rest[1], rest[0])), nil
	case "match":
		if len(rest) != 2 {
			return "", errors.New(`wrong # args: should be "string match pattern string"`)
		}
		return FormatBool(globMatch(rest[0], rest[1])), nil
	default:
		return "", fmt.Errorf("unknown string subcommand %q", sub)
	}
}

// globMatch implements Tcl's simple glob matching: * ? and literal chars,
// byte by byte. It keeps one backtrack point, the last '*' seen: a mismatch
// after it lets that star absorb one more byte and retries from there, so a
// match costs O(len(pattern)·len(s)) however many stars the pattern holds.
func globMatch(pattern, s string) bool {
	p, i := 0, 0
	star, next := -1, 0 // the last '*' in pattern, and where in s it stops
	for i < len(s) {
		switch {
		case p < len(pattern) && pattern[p] == '*':
			star, next = p, i
			p++
		case p < len(pattern) && (pattern[p] == '?' || pattern[p] == s[i]):
			p++
			i++
		case star >= 0:
			next++
			p, i = star+1, next
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '*' {
		p++
	}
	return p == len(pattern)
}

func cmdFormat(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "format formatString ?arg ...?"); err != nil {
		return "", err
	}
	if out, ok := fastFormat(in, args[0], args[1:]); ok {
		return out, nil
	}
	// Translate the format string verb-by-verb so numeric verbs receive
	// proper Go types.
	spec := args[0]
	vals := args[1:]
	var out strings.Builder
	vi := 0
	for i := 0; i < len(spec); i++ {
		c := spec[i]
		if c != '%' {
			out.WriteByte(c)
			continue
		}
		j := i + 1
		for j < len(spec) && strings.ContainsRune("-+ 0123456789.", rune(spec[j])) {
			j++
		}
		if j >= len(spec) {
			return "", errors.New("format string ends with %")
		}
		verb := spec[j]
		flags := spec[i : j+1]
		if verb == '%' {
			out.WriteByte('%')
			i = j
			continue
		}
		if vi >= len(vals) {
			return "", errors.New("not enough arguments for format string")
		}
		arg := vals[vi]
		vi++
		switch verb {
		case 'd', 'i', 'x', 'X', 'o':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
			if err != nil {
				f, ferr := strconv.ParseFloat(arg, 64)
				if ferr != nil {
					return "", fmt.Errorf("expected integer for %%%c, got %q", verb, arg)
				}
				n = int64(f)
			}
			if verb == 'i' {
				flags = flags[:len(flags)-1] + "d"
			}
			fmt.Fprintf(&out, flags, n)
		case 'f', 'e', 'g':
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return "", fmt.Errorf("expected float for %%%c, got %q", verb, arg)
			}
			fmt.Fprintf(&out, flags, f)
		case 's', 'q':
			fmt.Fprintf(&out, flags, arg)
		default:
			return "", fmt.Errorf("unsupported format verb %%%c", verb)
		}
		i = j
	}
	if vi < len(vals) {
		return "", errors.New("extra arguments for format string")
	}
	return out.String(), nil
}

func cmdInfo(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, 2, "info subcommand ?arg?"); err != nil {
		return "", err
	}
	switch args[0] {
	case "exists":
		if len(args) != 2 {
			return "", errors.New(`wrong # args: should be "info exists varName"`)
		}
		return FormatBool(in.varExists(args[1])), nil
	case "commands":
		names := in.Commands()
		for p := range in.procs {
			names = append(names, p)
		}
		sort.Strings(names)
		return FormatList(names), nil
	case "procs":
		var names []string
		for p := range in.procs {
			names = append(names, p)
		}
		sort.Strings(names)
		return FormatList(names), nil
	case "steps":
		return strconv.Itoa(in.Steps), nil
	default:
		return "", fmt.Errorf("unknown info subcommand %q", args[0])
	}
}

// exprTruthy evaluates a condition string as an expression and coerces the
// result to a boolean.
func exprTruthy(in *Interp, cond string) (bool, error) {
	v, err := evalExpr(in, cond)
	if err != nil {
		return false, err
	}
	return Truthy(v)
}
