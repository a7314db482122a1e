package tacl

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The equivalence suite pins the bytecode VM to the reference interpreter
// (reference_test.go). Same results, same error text, same step counts,
// same StepHook billing, same puts output, same jump/budget behavior — any
// divergence fails.

// allEngines are the two ways a script runs in the differential suites.
var allEngines = []struct {
	name string
	ref  bool
}{
	{"vm", false},
	{"reference", true},
}

// newEngine returns an interpreter running the VM, or the reference
// interpreter when ref is set.
func newEngine(ref bool) *Interp {
	in := New()
	if ref {
		useReference(in)
	}
	return in
}

type equivResult struct {
	out      string
	isErr    bool
	errText  string
	steps    int
	hooks    int
	puts     string
	isJump   bool
	jumpDest string
	isPark   bool
	isBudget bool
}

func runEquiv(src string, ref bool, maxSteps int) equivResult {
	in := newEngine(ref)
	in.MaxSteps = maxSteps
	hooks := 0
	in.StepHook = func() error { hooks++; return nil }
	var buf bytes.Buffer
	in.Out = &buf
	// A stand-in for the kernel's migration command, so the suite can
	// assert the jump signal passes through both engines identically.
	in.Register("jump", func(_ *Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", errors.New("jump needs one arg")
		}
		return "", JumpSignal(args[0])
	})
	// And for the kernel's park command: like jump, a stop signal no catch
	// may trap.
	in.Register("park", func(_ *Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", errors.New("park needs one arg")
		}
		return "", ParkSignal(args[0])
	})
	// A side-effecting host command, so the suite observes evaluation
	// order and count of [command] substitutions.
	probe := 0
	in.Register("probe", func(*Interp, []string) (string, error) {
		probe++
		return strconv.Itoa(probe), nil
	})
	registerShadowers(in)
	out, err := in.Eval(src)
	r := equivResult{out: out, steps: in.Steps, hooks: hooks, puts: buf.String()}
	if err != nil {
		r.isErr = true
		r.errText = err.Error()
		if d, ok := IsJump(err); ok {
			r.isJump, r.jumpDest = true, d
		}
		_, r.isPark = IsPark(err)
		r.isBudget = errors.Is(err, ErrBudget)
	}
	return r
}

// registerShadowers adds the host commands the corpus uses to shadow an
// inlined construct with a per-interp override: `shadow NAME` makes NAME
// return "shadowed:" and its argument count, `shadowbreak NAME` makes it
// raise break.
func registerShadowers(in *Interp) {
	in.Register("shadow", func(in *Interp, args []string) (string, error) {
		in.Register(args[0], func(_ *Interp, a []string) (string, error) {
			return "shadowed:" + strconv.Itoa(len(a)), nil
		})
		return "", nil
	})
	in.Register("shadowbreak", func(in *Interp, args []string) (string, error) {
		in.Register(args[0], func(*Interp, []string) (string, error) { return "", errBreak })
		return "", nil
	})
}

// equivCorpus exercises the full builtin set through both engines.
var equivCorpus = []string{
	// Variables and arithmetic.
	`set x 5; set y [expr {$x * 3 + 1}]; expr {$y - $x}`,
	`set x 0; incr x; incr x 41; expr {$x}`,
	`set s a; append s b c; set s`,
	`set x 5; unset x; catch {set x} msg; set msg`,
	// Expression grammar: precedence, ternary, logic, floats, strings.
	`expr {1 + 2 * 3 - 4 / 2}`,
	`expr {7 % 3}`,
	`expr {-7 / 2}`,
	`expr {-7 % 3}`,
	`expr {2.5 * 2}`,
	`expr {10 / 4}`,
	`expr {10.0 / 4}`,
	`expr {1 < 2 && 2 < 1 || 3 > 2}`,
	`expr {1 > 2 ? "big" : "small"}`,
	`expr {!0 && !!1}`,
	`expr {"abc" eq "abc"}`,
	`expr {"abc" ne "abd"}`,
	`expr {abc < abd}`,
	`expr {"10" == 10}`,
	`expr {"1e2" == 100}`,
	`expr {{braced} eq "braced"}`,
	`expr {(1 + 2) * (3 - 1)}`,
	`expr {min(3, 1, 2)}`,
	`expr {max(3, 1, 2)}`,
	`expr {abs(-4)}`,
	`expr {abs(-4.5)}`,
	`expr {int(3.9)}`,
	`expr {double(3)}`,
	`expr {round(2.5)}`,
	`expr {floor(2.9) + ceil(2.1)}`,
	`expr {sqrt(16)}`,
	`expr {pow(2, 10)}`,
	`expr {fmod(7.5, 2)}`,
	`expr {true && on || off}`,
	`expr {+5 - -3}`,
	`set i 1; expr {$i == 1 ? [probe] : [probe]}`, // both branches evaluate
	`expr {[probe] + [probe]}`,
	// Expression errors.
	`expr {1 / 0}`,
	`expr {1.0 / 0}`,
	`expr {1 % 0}`,
	`expr {abc + 1}`,
	`expr {2.5 % 2}`,
	`expr {sqrt(-1)}`,
	`expr {nosuchfn(1)}`,
	`expr {sqrt(1, 2)}`,
	`expr {$nosuchvar + 1}`,
	`expr {1 +}`,
	`expr {(1 + 2}`,
	`expr {}`,
	`catch {expr {1 / 0}} msg; set msg`,
	// Malformed expressions with side-effecting operands are compile
	// errors (Tcl 8's rule): no operand runs, so a stays unset and probe
	// never fires (TestMalformedExprRunsNothing pins the values).
	`catch {expr {[set a 5] +}} msg; list [catch {set a} r] $r $msg`,
	`catch {expr {[probe] + [probe] @}} msg; list $msg [probe]`,
	`catch {if {[probe] +} {}} msg; list $msg [probe]`,
	`catch {while {$nosuch @} {}} msg; set msg`,
	// Control flow.
	`set r {}; if {1 < 2} { set r then } else { set r else }; set r`,
	`set r {}; if {1 > 2} { set r a } elseif {2 > 1} { set r b } else { set r c }; set r`,
	`set i 0; set sum 0; while {$i < 10} { incr sum $i; incr i }; set sum`,
	`set sum 0; for {set i 0} {$i < 5} {incr i} { incr sum $i }; set sum`,
	`set sum 0; foreach x {1 2 3 4} { incr sum $x }; set sum`,
	`set r {}; foreach x {a b c d} { if {$x eq "c"} { break }; append r $x }; set r`,
	`set r {}; foreach x {a b c d} { if {$x eq "b"} { continue }; append r $x }; set r`,
	`set i 0; while {1} { incr i; if {$i >= 3} { break } }; set i`,
	`set r {}; switch b {a {set r A} b {set r B} default {set r D}}; set r`,
	`set r {}; switch -glob "hello" {h* {set r glob} default {set r D}}; set r`,
	`set r {}; switch x {a - b {set r AB} default {set r D}}; set r`,
	// Procs, scopes, upvar, uplevel, global.
	`proc add {a b} { expr {$a + $b} }; add 2 3`,
	`proc greet {name {greeting hi}} { return "$greeting $name" }; greet bob`,
	`proc many {args} { llength $args }; many a b c d`,
	`proc fib {n} { if {$n < 2} { return $n }; expr {[fib [expr {$n-1}]] + [fib [expr {$n-2}]]} }; fib 10`,
	`set g 10; proc bump {} { global g; incr g }; bump; bump; set g`,
	`proc inner {vn} { upvar 1 $vn v; set v changed }; proc outer {} { set local x; inner local; set local }; outer`,
	`set top 1; proc deep {} { upvar #0 top t; incr t 10 }; deep; set top`,
	`proc lvl {} { uplevel 1 {set fromup yes} }; proc caller {} { lvl; set fromup }; caller`,
	`proc esc {} { break }; catch {esc} msg; set msg`,
	`proc missing {a b} {}; catch {missing 1} msg; set msg`,
	// eval and catch.
	`eval set x 7 {;} incr x; set x`,
	`catch {error boom} msg; set msg`,
	`catch {nosuchcmd} msg; set msg`,
	`set code [catch {expr {1 + 1}} val]; list $code $val`,
	// Lists.
	`set l [list a b "c d"]; list [llength $l] [lindex $l 2] [lindex $l end]`,
	`set l {}; lappend l x y; lappend l z; set l`,
	`lrange {a b c d e} 1 3`,
	`lrange {a b c d e} 3 end`,
	`lsearch {a b c} b`,
	`lsearch {a b c} z`,
	`lreverse {1 2 3}`,
	`lsort {pear apple orange}`,
	`lsort -integer {10 2 33 4}`,
	`join {a b c} -`,
	`split a,b,,c ,`,
	`split abc {}`,
	`concat {a b} {} { c }`,
	`lassign {1 2 3 4} a b; list $a $b`,
	`linsert {a c} 1 b`,
	`set l {a b c}; lset l 1 B; set l`,
	`lrepeat 3 x y`,
	// Strings.
	`string length hello`,
	`string toupper mix; string tolower MIX`,
	`string trim "  pad  "`,
	`string index hello 1`,
	`string index hello end`,
	`string range hello 1 3`,
	`string repeat ab 3`,
	`string equal a a`,
	`string compare a b`,
	`string first ll hello`,
	`string last l hello`,
	`string match "h*o" hello`,
	`string replace hello 1 3 EY`,
	`string reverse abc`,
	`string map {a 1 b 2} abba`,
	`string is integer 42`,
	`string is double 4.2e1`,
	`string is alpha abc`,
	`string is digit 123x`,
	// format and info.
	`format "%s=%d (%05.1f) %x %%" k 42 2.5 255`,
	`format "%i|%d" 7.9 " 8 "`,
	`catch {format "%d" notanint} msg; set msg`,
	`info exists nope`,
	`set yes 1; info exists yes`,
	`proc p1 {} {}; proc p2 {} {}; info procs`,
	`info steps`,
	// puts output.
	`puts hello; puts -nonewline world`,
	// Slot-resolved variable store: statically-known names live in frame
	// slots, computed names spill to the frame map, and `global`/`upvar`
	// divert a frame entirely. These pin the slot↔map aliasing rules.
	`set name v; set $name 7; catch {set v} msg; list [info exists v] $msg`,
	`set v 1; set name v; set $name 9; incr v; set v`,
	`proc outer {} { proc inner {} { global g; incr g }; inner }; set g 5; outer; set g`,
	`set a 1; unset a; info exists a`,
	`set name b; set $name 2; unset $name; info exists b`,
	`set a 1; set name a; unset $name; catch {set a} msg; set msg`,
	`proc f {} { set loc 3; unset loc; info exists loc }; f`,
	`proc f {x} { upvar 1 $x v; set v 42; incr v }; set t 0; f t; set t`,
	`proc f {} { global gg; set gg 2; unset gg }; set gg 1; f; info exists gg`,
	`set c 0; catch { set c 1; error boom } msg; list $c $msg`,
	`proc f {} { global w; unset w; set w 8 }; set w 3; f; set w`,
	// Condition truthiness runs Truthy on the result text: a command
	// substitution yielding padded numerals must error ("expected
	// boolean") identically on every engine — the VM's fast paths must
	// not accidentally trim.
	`if {[format " %d " 2]} { set r yes }`,
	`while {[format " %d " 1]} { break }`,
	// Jump semantics: execution stops at the origin after a migration.
	`set x 1; jump site-b; set x 2`,
	`set i 0; while {$i < 10} { incr i; if {$i == 4} { jump dest } }`,
	// Park semantics: a stop signal, so catch passes it through.
	`set after 0; catch {park me} m; set after 1`,
	`proc p {} { catch {park me}; return no }; p; set after 1`,
	`set i 0; while {1} { incr i; if {$i == 2} { catch {park me} } }`,
	// Return: from loops, substitutions, expr and catch inside a proc, and
	// the value surviving nested calls; at top level, its error text.
	`proc f {} { set i 0; while {1} { incr i; if {$i == 3} { return $i } } }; f`,
	`proc f {} { foreach x {a b c} { if {$x eq "b"} { return $x } }; return none }; f`,
	`proc f {} { for {set i 0} {1} {incr i} { if {$i > 4} { return $i } } }; f`,
	`proc f {} { set v [return inner]; return outer }; f`,
	`proc f {} { expr {[return x]} }; f`,
	`proc f {} { expr {1 + [return y]} }; f`,
	`proc f {} { catch {return caught}; return after }; f`,
	`proc f {} { catch {return x} m; set m }; list [f] [info exists m]`,
	`proc f {} { return }; list [f] [f]`,
	`proc g {} { return g }; proc f {} { set x [g]; return "f$x" }; f`,
	`proc f {} { uplevel 1 {return up} }; proc h {} { f; return h }; h`,
	`proc f {n} { if {$n == 0} { return 0 }; expr {[f [expr {$n - 1}]] + 1} }; f 40`,
	`proc r {n} { r [expr {$n + 1}] }; catch {r 0} m; set m`,
	`proc r {n} { if {$n >= 90} { return $n }; return [r [expr {$n + 1}]] }; r 0`,
	`proc r {n} { if {$n >= 200} { return $n }; return [r [expr {$n + 1}]] }; catch {r 0} m; set m`,
	`return 5`,
	`catch {return 5} m`,
	`expr {[return x]}`,
	`proc f {} { while {1} { return 1 } }; proc g {} { break }; list [f] [catch {g} m] $m`,
	// Integer programs: operator trees over slot variables and integer
	// constants, with every edge the AST owns — overflow wraps, flooring
	// / and %, zero divisors, non-integer operands, float relational
	// comparison past 2**53, and a bare operand's text.
	`proc mix {a b} { return [expr {($a * 31 + $b) % 65521}] }; set acc 7; for {set i 0} {$i < 64} {incr i} { set acc [mix $acc $i] }; set acc`,
	`set m 922337203685477580; list [expr {$m * 10 + 7}] [expr {$m * 10 + 7 + 1}] [expr {-($m * 10 + 7) - 2}]`,
	`set m 9223372036854775807; list [expr {$m + 1}] [expr {$m - 1}]`,
	`set a -7; set b 2; list [expr {$a / $b}] [expr {$a % $b}] [expr {$a / -$b}] [expr {-$a % -$b}] [expr {$a % -$b}]`,
	`set a 5; set z 0; catch {expr {$a / $z}} m1; catch {expr {$a % $z}} m2; catch {expr {$a + 1 / $z}} m3; list $m1 $m2 $m3`,
	`set s " 5 "; list [expr {$s + 1}] [expr {$s < 6}] [expr {$s == 5}]`,
	`set h 0x10; list [catch {expr {$h + 1}} m] $m [expr {$h < 1}]`,
	`set e 1e3; list [expr {$e + 1}] [expr {$e * 2 > 1999}] [expr {$e % 7}]`,
	`set p 9007199254740993; set q 9007199254740992; list [expr {$p > $q}] [expr {$p == $q}] [expr {$p != $q}] [expr {$p - $q}] [expr {$p >= $q + 1}]`,
	`set a 007; list [expr {$a}] [expr {+$a}] [expr {$a + 0}] [expr {-$a}] [expr {$a * 1 eq "7"}]`,
	`set i 0; while {$i * 2 < 10} { incr i }; set i`,
	`set i 0; set n 5; while {$i < $n} { incr i }; list $i [expr {$i == $n}] [expr {$i != $n}]`,
	`set a 3; set u {}; catch {expr {$a + $u}} m; set m`,
	`set a 3; catch {expr {$a + $nope}} m; set m`,
	`set a 150; set b 250; list [expr {$a + $b}] [expr {$a - $b}] [expr {$a * $b}] [expr {$b / $a}]`,
	`proc f {} { global g; expr {$g * 2} }; set g 21; f`,
	`proc f {v} { upvar 1 $v x; expr {$x * 3} }; set t 14; f t`,
	// Shadowed constructs: a proc or a per-interp override named like an
	// inlined construct takes every call, including one compiled before
	// the redefinition.
	`proc if {args} { return "if:[llength $args]" }; if {1} { set r a } else { set r b }`,
	`proc while {c b} { return "w:$c" }; set i 0; while {$i < 3} { incr i }`,
	`proc for {args} { return "for:[llength $args]" }; for {set i 0} {$i < 3} {incr i} {}`,
	`proc foreach {v l b} { return "fe:$v:$l" }; foreach x {a b} { set y $x }`,
	`proc foreach {v l b} { return "fe:$l" }; set L {1 2}; foreach x $L { set y $x }`,
	`proc foreach {v l b} { return "fe:$l" }; foreach x [probe][probe] { set y $x }`,
	`proc expr {args} { return "e:[join $args ,]" }; expr {1 + 2}`,
	`proc set {n args} { return "s:$n:$args" }; set x 5`,
	`proc set {n args} { return "s:$n" }; set x [probe]; probe`,
	`list [set x [proc set args { return s }]] [info exists x]`,
	`list [foreach x [proc foreach args { return f }] { set y 1 }] [info exists y]`,
	`proc incr {n args} { return "i:$n:$args" }; list [incr x] [incr x 5]`,
	`shadow while; set i 0; while {$i < 3} { incr i }`,
	`shadow if; if {1} { set r a }`,
	`shadow set; list [set x 1] [info exists x]`,
	`shadow incr; list [incr x 2] [info exists x]`,
	`shadow expr; expr {1 + 1}`,
	`shadow foreach; foreach x {a b} { probe }; probe`,
	`shadow for; for {set i 0} {$i < 2} {incr i} { probe }; probe`,
	`set r {}; foreach k {1 2 3} { lappend r [expr {$k + 1}]; if {$k == 1} { proc expr {args} { return E } } }; set r`,
	`set r {}; foreach k {1 2 3} { lappend r [set k]; if {$k == 2} { shadow set } }; set r`,
	`set n 0; foreach k {1 2 3} { incr n; if {$k == 2} { proc incr {args} { return skip } } }; set n`,
	`proc set {n v} { return $v }; catch {set x $nosuch} m; set m`,
	`proc set {n v} { return $v }; catch {set x [error boom]} m; set m`,
	`proc foreach {v l b} { return ok }; catch {foreach x $nosuch {}} m; set m`,
	`proc while {c b} { error "w failed" }; catch {while {1} {}} m; set m`,
	`proc expr {args} { error "e failed" }; catch {expr {1}} m; set m`,
	`shadowbreak while; set n 0; foreach k {1 2 3} { incr n; while {1} {} }; set n`,
	`shadowbreak if; set n 0; foreach k {1 2 3} { incr n; if {1} {} }; set n`,
	`shadowbreak set; set n 0; foreach k {1 2 3} { incr n; set y 1 }; set n`,
	`proc set {n v} { return $v }; proc done {} { return d }; foreach k {1 2 3} { set y [break] }; done`,
	`proc foreach {v l b} { return $l }; set n 0; while {$n < 5} { incr n; foreach x [continue] {} }; set n`,
	// Multi-segment words: substitutions concatenated left to right, an
	// unset variable mid-word stopping the word, break and continue from
	// inside a word inside a loop, and the depth limit through a word.
	`set x 1; set y a$x[string length abc]b; set y`,
	`set x 1; list pre$x$x post[probe][probe] "$x-[probe]-$x"`,
	`catch {set y a$nosuch[probe]b} m; list $m [probe]`,
	`set r {}; foreach k {1 2 3} { lappend r x[if {$k == 2} break]y$k }; set r`,
	`set r {}; foreach k {1 2 3} { lappend r x[if {$k == 2} continue]y$k }; set r`,
	`set y a[foreach q {1 2} { break }]b; set y`,
	`set r {}; lappend r p q r[while {1} { break }]s t; set r`,
	`set r {}; foreach k {1 2} { lappend r a$k[foreach q {x y} { if {$q eq "y"} break; probe }]b }; set r`,
	`proc r {n} { return x[r [expr {$n + 1}]]y }; catch {r 0} m; set m`,
	`proc r {n} { if {$n > 5} { return $n }; return <[r [expr {$n + 1}]]> }; r 0`,
	`set x 1; set y "a $x [probe] b"; set y`,
	// Parse errors.
	`set x {unclosed`,
	`set x "unclosed`,
	`expr {1 + [nosuch}`,
	`{a}b`,
}

func TestCompiledEquivalence(t *testing.T) {
	for _, src := range equivCorpus {
		want := runEquiv(src, true, 10000)
		if got := runEquiv(src, false, 10000); got != want {
			t.Errorf("divergence on %q:\n  vm:       %+v\n  reference %+v", src, got, want)
		}
	}
}

// TestCompiledEquivalenceBudget pins ErrBudget behavior: the VM must exhaust
// the same budget after the same number of steps and hook calls as the
// reference interpreter, and catch must not trap it in either.
func TestCompiledEquivalenceBudget(t *testing.T) {
	srcs := []string{
		`set i 0; while {$i < 10000} { incr i }`,
		`catch {set i 0; while {$i < 10000} { incr i }} msg; set msg`,
		`proc spin {} { spin }; spin`,
		`for {set i 0} {1} {incr i} { set x $i }`,
		// Empty-body spins: the per-iteration charge must make these
		// exhaust the budget instead of hanging (the PR 3 step-budget gap).
		`while {1} {}`,
		`for {set i 0} {1} {} {}`,
		`foreach x {a b c d e f g h} {}; set x`,
		`proc while {c b} { return w }; set i 0; while {$i < 3} { incr i }; while {1} {}`,
		`shadow set; for {set i 0} {1} {incr i} { set x a$i[set y]b }`,
		`set r {}; foreach k {1 2 3 4 5 6 7 8 9} { lappend r a$k[probe]b }; set r`,
	}
	for _, src := range srcs {
		for _, budget := range []int{1, 7, 50, 333} {
			want := runEquiv(src, true, budget)
			if got := runEquiv(src, false, budget); got != want {
				t.Errorf("budget %d divergence on %q:\n  vm:       %+v\n  reference %+v",
					budget, src, got, want)
			}
		}
	}
}

// TestMalformedExprRunsNothing pins Tcl 8's rule on both engines: a
// malformed expression fails to compile before any operand runs, so the
// operand's side effect never happens and only the enclosing commands bill
// a step.
func TestMalformedExprRunsNothing(t *testing.T) {
	for _, tc := range []struct {
		src     string
		steps   int
		errText string
	}{
		{`expr {[set a 5] +}`, 1, `tacl: line 1: expr: expr "[set a 5] +": unexpected end of expression`},
		{`set r [expr {[set a 5] + }]`, 2, `tacl: line 1: expr: expr "[set a 5] + ": unexpected end of expression`},
		{`if {[set a 5] @} {}`, 1, `tacl: line 1: if: expr "[set a 5] @": trailing garbage at 10`},
		{`while {[set a 5] +} {}`, 1, `tacl: line 1: while: expr "[set a 5] +": unexpected end of expression`},
		{`expr {[set a 5] + [set a 6] + (}`, 1, `tacl: line 1: expr: expr "[set a 5] + [set a 6] + (": unexpected end of expression`},
	} {
		for _, e := range allEngines {
			in := newEngine(e.ref)
			_, err := in.Eval(tc.src)
			if err == nil || err.Error() != tc.errText {
				t.Errorf("%s: %q: err = %v, want %q", e.name, tc.src, err, tc.errText)
			}
			if _, ok := in.Global("a"); ok {
				t.Errorf("%s: %q: an operand of a malformed expression ran", e.name, tc.src)
			}
			if in.Steps != tc.steps {
				t.Errorf("%s: %q: %d steps, want %d", e.name, tc.src, in.Steps, tc.steps)
			}
		}
	}
}

// TestInlinedBodyLines pins the line an error inside a multi-line body
// reports, on both engines: the line it sits on in the script, wherever
// the compiler inlines the body; proc bodies count from the proc's own
// first line, as in Tcl, and so does a body the builtin runs, which is
// parsed on its own.
func TestInlinedBodyLines(t *testing.T) {
	for _, tc := range []struct{ src, errText string }{
		{"set i 0\nwhile {$i < 1} {\n\tincr i\n\tnosuch\n}",
			`tacl: line 4: unknown command "nosuch"`},
		{"set x 2\nif {$x == 1} {\n\tset y 1\n} elseif {$x == 2} {\n\n\tnosuch\n} else {\n\tset y 3\n}",
			`tacl: line 6: unknown command "nosuch"`},
		{"if {0} {\n} else {\n\tset y 3\n\tnosuch\n}",
			`tacl: line 4: unknown command "nosuch"`},
		{"for {set i 0\n} {$i < 1} {incr i\n\tnosuch\n} {\n\tset y $i\n}",
			`tacl: line 3: unknown command "nosuch"`},
		{"foreach v {a b} {\n\tforeach w {c} {\n\t\tset z $v$w\n\t\tincr z\n\t}\n}",
			`tacl: line 4: incr: expected integer in "z", got "ac"`},
		{"while {1} {\n\tset v [\n\t\tnosuch]\n}",
			`tacl: line 3: unknown command "nosuch"`},
		{"while {1} {\n\tset v [if {1} {\n\t\tnosuch\n\t}]\n}",
			`tacl: line 3: unknown command "nosuch"`},
		{"\n\nproc p {} {\n\tnosuch\n}\nwhile {1} {\n\tp\n}",
			`tacl: line 2: unknown command "nosuch"`},
		// A dynamic condition keeps the builtin: the body's parse is its own.
		{"set c 1\nwhile $c {\n\tset c 0\n\tnosuch\n}",
			`tacl: line 3: unknown command "nosuch"`},
		{"set i 0\nwhile {$i < 5} {\n\tincr i\n\n\tset j $i\n}",
			fmt.Sprintf("tacl: line 2: while: %v after 4 steps (line 3)", ErrBudget)},
	} {
		for _, e := range allEngines {
			in := newEngine(e.ref)
			if strings.Contains(tc.errText, "budget") {
				in.MaxSteps = 4
			}
			if _, err := in.Eval(tc.src); err == nil || err.Error() != tc.errText {
				t.Errorf("%s: %q: err = %v, want %q", e.name, tc.src, err, tc.errText)
			}
		}
	}
	// Past maxInlineDepth the compiler stops inlining, and the reference
	// must stop offsetting at the same depth.
	for _, depth := range []int{maxInlineDepth - 1, maxInlineDepth, maxInlineDepth + 2} {
		src := strings.Repeat("if {1} {\n", depth) + "set v [\nnosuch]\n" + strings.Repeat("}\n", depth)
		want := runEquiv(src, true, 0)
		if got := runEquiv(src, false, 0); got != want || !want.isErr {
			t.Errorf("depth %d:\n  vm:        %+v\n  reference: %+v", depth, got, want)
		}
	}
}

// TestOversizedScriptRunsNothing pins that a script past the compiler's
// program cap fails with ErrCompile before any of its commands runs, at
// top level and as a proc body.
func TestOversizedScriptRunsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("parses and compiles a 1 MiB script four times")
	}
	// Each command is two ops (a step and a constant call).
	big := "set ran 1\n" + strings.Repeat("a\n", maxProgramOps/2)
	for _, e := range allEngines {
		in := newEngine(e.ref)
		_, err := in.Eval(big)
		if !errors.Is(err, ErrCompile) || in.Steps != 0 {
			t.Errorf("%s: top level: err = %v after %d steps, want ErrCompile after 0", e.name, err, in.Steps)
		}
		in.SetGlobal("body", big)
		_, err = in.Eval(`proc big {} $body`)
		if !errors.Is(err, ErrCompile) || in.Steps != 1 {
			t.Errorf("%s: proc body: err = %v after %d steps, want ErrCompile after 1", e.name, err, in.Steps)
		}
		if _, ok := in.Global("ran"); ok {
			t.Errorf("%s: a command of an oversized script ran", e.name)
		}
	}
}

// TestScriptCacheSharing pins that the cached-parse path returns the same
// results as a cold parse: the same body text evaluated from two different
// interpreters shares one *Script, and execution remains independent.
func TestScriptCacheSharing(t *testing.T) {
	src := `set i 0; while {$i < 5} { incr i }; set i`
	// Admission is on second sight: the first call records the key, the
	// second stores the parse, and from then on the pointer is stable.
	if _, err := ParseCached(src); err != nil {
		t.Fatal(err)
	}
	s1, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("ParseCached returned distinct scripts for identical source after warm-up")
	}
	a, b := New(), New()
	ra, err := a.EvalScript(s1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.EvalScript(s2)
	if err != nil {
		t.Fatal(err)
	}
	if ra != "5" || rb != "5" {
		t.Fatalf("shared script produced %q / %q, want 5/5", ra, rb)
	}
}

// TestPooledInterpReset pins Put/Get hygiene: state from one activation
// (globals, procs, overrides, steps, hooks) must never leak into the next.
func TestPooledInterpReset(t *testing.T) {
	tbl := NewTable()
	in := Get(tbl)
	in.MaxSteps = 10
	in.StepHook = func() error { return nil }
	in.Register("custom", func(*Interp, []string) (string, error) { return "x", nil })
	if _, err := in.Eval(`set leak 1; proc ghost {} {}; custom`); err != nil {
		t.Fatal(err)
	}
	Put(in)

	in2 := Get(tbl)
	defer Put(in2)
	if in2.MaxSteps != 0 || in2.Steps != 0 || in2.StepHook != nil {
		t.Fatalf("pooled interp not reset: MaxSteps=%d Steps=%d hook=%v",
			in2.MaxSteps, in2.Steps, in2.StepHook != nil)
	}
	if _, ok := in2.Global("leak"); ok {
		t.Fatal("global leaked through the pool")
	}
	if out, err := in2.Eval(`info procs`); err != nil || out != "" {
		t.Fatalf("procs leaked through the pool: %q, %v", out, err)
	}
	if _, err := in2.Eval(`custom`); err == nil {
		t.Fatal("per-interp command leaked through the pool")
	}
}

// TestTableCommandsCached pins the Commands satellite: the sorted name list
// is stable, complete, and not re-sorted per call (same backing array until
// Register invalidates it).
func TestTableCommandsCached(t *testing.T) {
	tbl := NewTable()
	a := tbl.Names()
	b := tbl.Names()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("Names not cached between calls")
	}
	tbl.Register("zzz_custom", func(*Interp, []string) (string, error) { return "", nil })
	c := tbl.Names()
	found := false
	for _, n := range c {
		if n == "zzz_custom" {
			found = true
		}
	}
	if !found {
		t.Fatal("Register did not invalidate cached Names")
	}
	in := Get(tbl)
	defer Put(in)
	in.Register("aaa_local", func(*Interp, []string) (string, error) { return "", nil })
	names := in.Commands()
	if names[0] != "aaa_local" {
		t.Fatalf("Commands() merge broken: first = %q", names[0])
	}
}
