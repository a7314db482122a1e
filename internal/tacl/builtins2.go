package tacl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Additional builtins: Tcl's switch, list surgery (lassign, linsert, lset,
// lrepeat), and the string subcommands agents keep reaching for. Registered
// alongside the core set.

func init() {
	extra := map[string]CmdFunc{
		"switch":  cmdSwitch,
		"lassign": cmdLassign,
		"linsert": cmdLinsert,
		"lset":    cmdLset,
		"lrepeat": cmdLrepeat,
		"upvar":   cmdUpvar,
		"uplevel": cmdUplevel,
	}
	for name, fn := range extra {
		extraBuiltins[name] = fn
	}
}

// extraBuiltins collects late-registered builtins; registerBuiltinsInto
// drains it so New() picks everything up regardless of file order.
var extraBuiltins = map[string]CmdFunc{}

// cmdSwitch implements Tcl's switch:
//
//	switch ?-exact|-glob? value {pattern body ?pattern body ...?}
//	switch ?-exact|-glob? value pattern body ?pattern body ...?
//
// "default" as the last pattern matches anything. A body of "-" falls
// through to the next body, as in Tcl.
func cmdSwitch(in *Interp, args []string) (string, error) {
	mode := "-exact"
	if len(args) > 0 && (args[0] == "-exact" || args[0] == "-glob") {
		mode = args[0]
		args = args[1:]
	}
	if len(args) < 2 {
		return "", errors.New(`wrong # args: should be "switch ?-exact|-glob? value pattern body ..."`)
	}
	value := args[0]
	rest := args[1:]
	var pairs []string
	if len(rest) == 1 {
		items, err := ParseList(rest[0])
		if err != nil {
			return "", err
		}
		pairs = items
	} else {
		pairs = rest
	}
	if len(pairs)%2 != 0 {
		return "", errors.New("switch: pattern with no body")
	}
	for i := 0; i < len(pairs); i += 2 {
		pattern, body := pairs[i], pairs[i+1]
		matched := pattern == "default" && i == len(pairs)-2
		if !matched {
			if mode == "-glob" {
				matched = globMatch(pattern, value)
			} else {
				matched = pattern == value
			}
		}
		if !matched {
			continue
		}
		// Fall through "-" bodies to the next non-"-" body.
		for body == "-" {
			i += 2
			if i >= len(pairs) {
				return "", fmt.Errorf("switch: no body specified for pattern %q", pairs[i-2])
			}
			body = pairs[i+1]
		}
		return in.EvalCached(body)
	}
	return "", nil
}

// cmdLassign distributes list elements into variables, returning the
// unassigned remainder. Extra variables are set to "".
func cmdLassign(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "lassign list varName ?varName ...?"); err != nil {
		return "", err
	}
	elems, err := ParseList(args[0])
	if err != nil {
		return "", err
	}
	for i, name := range args[1:] {
		if i < len(elems) {
			in.setVar(name, elems[i])
		} else {
			in.setVar(name, "")
		}
	}
	if len(args)-1 < len(elems) {
		return FormatList(elems[len(args)-1:]), nil
	}
	return "", nil
}

// cmdLinsert inserts elements before the given index.
func cmdLinsert(in *Interp, args []string) (string, error) {
	if err := arity(args, 2, -1, "linsert list index element ?element ...?"); err != nil {
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
	if args[1] == "end" {
		i = len(elems) // Tcl's linsert end appends
	}
	if i < 0 {
		i = 0
	}
	if i > len(elems) {
		i = len(elems)
	}
	out := make([]string, 0, len(elems)+len(args)-2)
	out = append(out, elems[:i]...)
	out = append(out, args[2:]...)
	out = append(out, elems[i:]...)
	return FormatList(out), nil
}

// cmdLset replaces one element of a list stored in a variable.
func cmdLset(in *Interp, args []string) (string, error) {
	if err := arity(args, 3, 3, "lset varName index value"); err != nil {
		return "", err
	}
	cur, err := in.getVar(args[0])
	if err != nil {
		return "", err
	}
	elems, err := ParseList(cur)
	if err != nil {
		return "", err
	}
	i, err := listIndex(args[1], len(elems))
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(elems) {
		return "", fmt.Errorf("lset: index %q out of range", args[1])
	}
	elems[i] = args[2]
	v := FormatList(elems)
	in.setVar(args[0], v)
	return v, nil
}

// cmdLrepeat builds a list of count copies of the elements.
func cmdLrepeat(in *Interp, args []string) (string, error) {
	if err := arity(args, 1, -1, "lrepeat count ?element ...?"); err != nil {
		return "", err
	}
	n, err := strconv.Atoi(args[0])
	if err != nil || n < 0 {
		return "", fmt.Errorf("lrepeat: bad count %q", args[0])
	}
	elems := args[1:]
	if len(elems) == 0 {
		return "", nil
	}
	// Compare without multiplying: n*len overflows for a hostile n.
	if n > maxRepeatElems/len(elems) {
		return "", fmt.Errorf("lrepeat: %w", ErrTooLarge)
	}
	out := make([]string, 0, n*len(elems))
	for i := 0; i < n; i++ {
		out = append(out, elems...)
	}
	return FormatList(out), nil
}

// Extended string subcommands, merged into cmdString's dispatch via this
// hook (keeps the original switch readable).
func stringExtra(sub string, rest []string) (string, bool, error) {
	switch sub {
	case "last":
		if len(rest) != 2 {
			return "", true, errors.New(`wrong # args: should be "string last needle haystack"`)
		}
		return strconv.Itoa(strings.LastIndex(rest[1], rest[0])), true, nil
	case "replace":
		// string replace string first last ?newstring?
		if len(rest) != 3 && len(rest) != 4 {
			return "", true, errors.New(`wrong # args: should be "string replace string first last ?new?"`)
		}
		s := rest[0]
		first, err := listIndex(rest[1], len(s))
		if err != nil {
			return "", true, err
		}
		last, err := listIndex(rest[2], len(s))
		if err != nil {
			return "", true, err
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last || first >= len(s) {
			return s, true, nil
		}
		repl := ""
		if len(rest) == 4 {
			repl = rest[3]
		}
		return s[:first] + repl + s[last+1:], true, nil
	case "reverse":
		if len(rest) != 1 {
			return "", true, errors.New(`wrong # args: should be "string reverse string"`)
		}
		b := []byte(rest[0])
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		return string(b), true, nil
	case "map":
		// string map {from to ?from to ...?} string
		if len(rest) != 2 {
			return "", true, errors.New(`wrong # args: should be "string map mapping string"`)
		}
		pairs, err := ParseList(rest[0])
		if err != nil {
			return "", true, err
		}
		if len(pairs)%2 != 0 {
			return "", true, errors.New("string map: mapping must have an even number of elements")
		}
		return strings.NewReplacer(pairs...).Replace(rest[1]), true, nil
	case "is":
		// string is integer|double|alpha|digit value
		if len(rest) != 2 {
			return "", true, errors.New(`wrong # args: should be "string is class value"`)
		}
		v := rest[1]
		var ok bool
		switch rest[0] {
		case "integer":
			_, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			ok = err == nil
		case "double":
			_, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			ok = err == nil
		case "alpha":
			ok = v != ""
			for i := 0; i < len(v); i++ {
				if !isAlpha(v[i]) {
					ok = false
					break
				}
			}
		case "digit":
			ok = v != ""
			for i := 0; i < len(v); i++ {
				if v[i] < '0' || v[i] > '9' {
					ok = false
					break
				}
			}
		default:
			return "", true, fmt.Errorf("string is: unknown class %q", rest[0])
		}
		return FormatBool(ok), true, nil
	}
	return "", false, nil
}

// cmdUpvar links a local variable name to a variable in the caller's frame
// (level 1) or the global frame (#0) — Tcl's pass-by-name mechanism.
func cmdUpvar(in *Interp, args []string) (string, error) {
	if len(args) != 2 && len(args) != 3 {
		return "", errors.New(`wrong # args: should be "upvar ?level? otherVar localVar"`)
	}
	level := "1"
	if len(args) == 3 {
		level, args = args[0], args[1:]
	}
	other, local := args[0], args[1]
	f := in.currentFrame()
	if f == nil {
		return "", errors.New("upvar: not inside a proc")
	}
	// Any upvar link redirects resolution away from the frame's slot array;
	// divert its slot fast paths to the full resolver permanently.
	f.diverted = true
	switch level {
	case "#0":
		// Alias to a global: reuse the global-linking machinery, with a
		// rename when the names differ.
		if other == local {
			f.global[local] = true
			return "", nil
		}
		f.aliases = ensureAliases(f)
		f.aliases[local] = varRef{frame: nil, name: other}
		return "", nil
	case "1":
		parent := in.parentFrame()
		f.aliases = ensureAliases(f)
		f.aliases[local] = varRef{frame: parent, name: other}
		return "", nil
	default:
		return "", fmt.Errorf("upvar: unsupported level %q (only 1 and #0)", level)
	}
}

// cmdUplevel evaluates a script in the caller's scope (level 1) or the
// global scope (#0).
func cmdUplevel(in *Interp, args []string) (string, error) {
	if len(args) < 1 {
		return "", errors.New(`wrong # args: should be "uplevel ?level? script"`)
	}
	level := "1"
	if len(args) > 1 && (args[0] == "1" || args[0] == "#0") {
		level, args = args[0], args[1:]
	}
	src := strings.Join(args, " ")
	saved := in.frames
	switch level {
	case "#0":
		in.frames = nil
	case "1":
		if len(in.frames) > 0 {
			// Copy: a nested proc call would append to the shortened
			// stack and could clobber the saved top frame in the shared
			// backing array.
			in.frames = append([]*frame(nil), in.frames[:len(in.frames)-1]...)
		}
	}
	defer func() { in.frames = saved }()
	return in.EvalCached(src)
}
