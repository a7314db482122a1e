package tacl

import (
	"testing"
)

// fuzzRun evaluates src on the VM, or on the reference interpreter when ref
// is set, with a bounded interpreter and returns the observable outcome
// tuple the fuzz targets compare.
func fuzzRun(src string, ref, script bool) (out, errText string, steps, probe int) {
	in := newEngine(ref)
	in.MaxSteps = 200
	in.SetGlobal("x", "5")
	in.SetGlobal("y", "abc")
	in.SetGlobal("f", "2.5")
	in.Register("probe", func(*Interp, []string) (string, error) {
		probe++
		return "1", nil
	})
	var err error
	switch {
	case script:
		out, err = in.Eval(src)
	case ref:
		out, err = evalExpr(in, src)
	default:
		out, err = vmExpr(in, src)
	}
	if err != nil {
		out = ""
		errText = err.Error()
	}
	return out, errText, in.Steps, probe
}

// vmExpr evaluates src the way the VM evaluates an inlined expr operand:
// through a compiled exprRef (constant folding, integer program, lone
// [cmd] substitution, slot-specialized AST) with the global scope bound to
// the operand's program, so the fuzzed globals are slot reads.
func vmExpr(in *Interp, src string) (string, error) {
	c := newCompiler(nil)
	ref := c.prog.exprs[c.exprRefIdx(src)]
	in.bindGlobalScope(c.prog)
	return vmExprEval(in, ref)
}

// fuzzCompare runs src on the VM and on the reference interpreter and
// fails on any divergence in result, error text, step count, or
// side-effect count.
func fuzzCompare(t *testing.T, src string, script bool) {
	t.Helper()
	refOut, refErr, refSteps, refProbe := fuzzRun(src, true, script)
	out, errText, steps, probe := fuzzRun(src, false, script)
	if errText != refErr {
		t.Fatalf("error divergence on %q:\n  vm:       %q, %q\n  reference %q, %q",
			src, out, errText, refOut, refErr)
	}
	if errText == "" && out != refOut {
		t.Fatalf("result divergence on %q:\n  vm:       %q\n  reference %q", src, out, refOut)
	}
	if steps != refSteps || probe != refProbe {
		t.Fatalf("billing divergence on %q:\n  vm:       steps %d, probes %d\n  reference steps %d, probes %d",
			src, steps, probe, refSteps, refProbe)
	}
}

// FuzzCompileEval differentially fuzzes expression evaluation: the VM's
// compiled operands against the reference interpreter's parse-per-eval
// evaluator. The invariant is full observational equality: same result or
// same error text, same step count, same side-effect count. A malformed
// expression is a compile error on both, so none of its operands run.
// Loops are enabled: the per-iteration step charge bounds even empty-body
// spins, so every input terminates within MaxSteps.
func FuzzCompileEval(f *testing.F) {
	seeds := []string{
		`1 + 2 * 3 - 4 / 2`,
		`$x > 3 && $y eq "abc"`,
		`1 > 2 ? "big" : $f`,
		`min(3, $x, 2) + max(1.5, $f)`,
		`!($x % 2) || abs(-$x) >= 5`,
		`[probe] + [probe]`,
		`{braced} eq "braced"`,
		`sqrt(pow($x, 2))`,
		`7 % 3 + -7 / 2`,
		`"1e2" == 100`,
		`$x + `,
		`nosuchfn(1)`,
		`(1 + 2`,
		`1 eq`,
		`$nosuchvar`,
		`0x`,
		`. + 1`,
		`[while {1} {}] + 1`,
		`[foreach q {a b} {}] eq ""`,
		// Integer programs and their edges.
		`($x * 31 + $x) % 65521`,
		`$x * 1844674407370955161`,
		`-$x / 2 + -$x % 2 + $x % -3`,
		`$x / 0`,
		`$x % (1 - 1)`,
		`$x == 5 && $x != 4`,
		`9007199254740993 > 9007199254740992 + $x - $x`,
		`$x + $y`,
		`$x * $f < 13`,
		`-$x`,
		`$x`,
		`[return 3] + $x`,
		`[set a 5] +`,
		`[probe] + [probe] @`,
		`$nosuchvar +`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 120 {
			t.Skip()
		}
		fuzzCompare(t, src, false)
	})
}

// FuzzVMScript differentially fuzzes whole-script execution: the bytecode
// compiler and VM against the reference interpreter, over scripts
// exercising control flow, procs, loops, substitution, and the step budget.
func FuzzVMScript(f *testing.F) {
	seeds := []string{
		`set i 0; while {$i < 10} { incr i }; set i`,
		`while {1} {}`,
		`for {set i 0} {$i < 5} {incr i} { probe }`,
		`foreach v {a b c} { if {$v eq "b"} { continue }; probe }`,
		`foreach v $y {}`,
		`if {$x > 3} { probe } elseif {$x > 1} { set r b } else { set r c }`,
		`proc add {a b} { expr {$a + $b} }; add $x 3`,
		`proc spin {} { spin }; spin`,
		`proc esc {} { break }; catch {esc} msg; set msg`,
		`set r {}; switch $y {abc {set r A} default {set r D}}; set r`,
		`catch {expr {1 / 0}} msg; set msg`,
		`eval set q 7 {;} incr q`,
		`set l [list a b "c d"]; lindex $l 2`,
		`format "%s=%d" $y $x`,
		`puts [string toupper $y]`,
		`while {[probe] < 3} { set x $x }`,
		`set x {unclosed`,
		`break`,
		`continue`,
		`return 5`,
		`unknowncmd a b`,
		// Slot↔map aliasing: computed names, global in nested procs,
		// unset/exists on slotted and spilled names, diverted frames.
		`set name v; set $name 7; info exists v`,
		`proc o {} { proc i {} { global g; incr g }; i }; set g 1; o; set g`,
		`set a 1; set name a; unset $name; catch {set a} msg; set msg`,
		`proc f {x} { upvar 1 $x v; set v 42 }; set t 0; f t; set t`,
		`proc f {} { set q 1; unset q; info exists q }; f`,
		`if {[format " %d " 2]} { set r yes }`,
		// Return paths, recursion depth and integer edges.
		`proc f {} { while {1} { return 1 } }; f`,
		`proc f {} { foreach v {a b} { return $v } }; f`,
		`proc f {} { set q [return in]; set q out }; f`,
		`proc f {} { expr {[return e]} }; f`,
		`proc f {} { catch {return c} }; f`,
		`proc r {n} { r [expr {$n + 1}] }; r 0`,
		`expr {[return t]}`,
		`set m 922337203685477580; expr {$m * 10 + 8}`,
		`set a -7; list [expr {$a / 2}] [expr {$a % 2}]`,
		`set s " 5 "; expr {$s + 1}`,
		`set h 0x10; expr {$h + 1}`,
		`set e 1e3; expr {$e + 1}`,
		`set p 9007199254740993; expr {$p > $p - 1}`,
		`set after 0; catch {break} m; set after 1`,
		// Shadowed constructs and multi-segment words.
		`proc while {c b} { return w }; while {$x < 9} { incr x }`,
		`proc set {n v} { return $v }; set q a$x[probe]b`,
		`proc foreach {v l b} { return $l }; foreach q $y { probe }`,
		`proc expr {args} { return e }; list [expr {1 + 2}] [if {1} { expr 3 }]`,
		`foreach k {1 2 3} { lappend r x[if {$k == 2} break]$k }; set r`,
		`set q a$nosuch[probe]b`,
		`proc r {n} { return x[r [expr {$n + 1}]]y }; r 0`,
		`catch {expr {[set a 5] +}} m; list [info exists a] $m`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 200 {
			t.Skip()
		}
		fuzzCompare(t, src, true)
	})
}
