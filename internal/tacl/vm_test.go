package tacl

import (
	"errors"
	"fmt"
	"strconv"
	"testing"
)

// Edge-semantics pins for the bytecode VM: park/jump signals crossing
// nested proc and loop boundaries, step budgets tripping inside a host
// command that itself evaluates TacL, and pooled-interpreter hygiene. All
// behavioral cases run on the VM and on the reference interpreter; any
// divergence fails.

type vmEdgeResult struct {
	out        string
	isErr      bool
	errText    string
	steps      int
	isJump     bool
	jumpDest   string
	isPark     bool
	parkName   string
	isBudget   bool
	isSentinel bool
	hostRuns   int
}

func runVMEdge(src string, ref bool, maxSteps int) vmEdgeResult {
	in := newEngine(ref)
	in.MaxSteps = maxSteps
	in.Register("jump", func(_ *Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", errors.New("jump needs one arg")
		}
		return "", JumpSignal(args[0])
	})
	in.Register("park", func(_ *Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", errors.New("park needs one arg")
		}
		return "", ParkSignal(args[0])
	})
	// hosteval mimics kernel commands that run TacL internally (the guard's
	// ACL hooks, meet bodies): steps charged inside the host call must land
	// in the same budget accounting on every engine.
	hostRuns := 0
	in.Register("hosteval", func(in *Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", errors.New("hosteval needs one arg")
		}
		hostRuns++
		return in.EvalCached(args[0])
	})
	// frozen returns a sentinel wrapped the way the kernel's folder
	// commands wrap folder.ErrFrozen: the chain must survive every layer.
	in.Register("frozen", func(*Interp, []string) (string, error) {
		return "", fmt.Errorf("push %q: %w", "LOCKED", errEdgeSentinel)
	})
	registerShadowers(in)
	out, err := in.Eval(src)
	r := vmEdgeResult{out: out, steps: in.Steps, hostRuns: hostRuns}
	if err != nil {
		r.isErr = true
		r.errText = err.Error()
		if d, ok := IsJump(err); ok {
			r.isJump, r.jumpDest = true, d
		}
		if n, ok := IsPark(err); ok {
			r.isPark, r.parkName = true, n
		}
		r.isBudget = errors.Is(err, ErrBudget)
		r.isSentinel = errors.Is(err, errEdgeSentinel)
	}
	return r
}

var errEdgeSentinel = errors.New("folder is frozen")

var vmEdgeCorpus = []string{
	// Jump raised from a proc called inside nested loops.
	`proc hop {d} { jump $d }
set i 0
while {$i < 5} { if {$i == 2} { hop H2 }; set i [expr $i + 1] }`,
	// Park raised from a proc inside a foreach.
	`proc nap {n} { park $n }
foreach x {a b c} { if {$x eq "b"} { nap w1 } }`,
	// Jump from a loop inside a proc inside a loop inside a proc.
	`proc outer {d} { foreach q {1 2} { inner $d } }
proc inner {d} { while {1} { jump $d } }
outer dest9`,
	// Park from deep in a counted loop.
	`set i 0
while {1} { set i [expr $i + 1]; if {$i > 3} { park deep } }`,
	// Signals crossing a [cmd] substitution boundary (inlined by the VM).
	`set x [jump viaarg]; set x`,
	`while {1} { set x [park viaarg] }`,
	`proc relay {} { set r [jump relayed]; set r }
foreach q {a b} { relay }`,
	// Park raised while proc frames hold live slot arrays: the signal and
	// step count must agree, and nothing about the slotted state may leak
	// into a later activation (TestParkedInterpReuse covers the reuse).
	`proc work {n} { set acc 0; set i 0; while {$i < 10} { incr acc $i; incr i; if {$i == $n} { park mid } }; set acc }
work 4`,
	// Park under a diverted frame (upvar aliases the caller's slot).
	`proc f {vn} { upvar 1 $vn v; set v 1; park w2; set v 2 }
set t 0; f t`,
	// Park after a computed-name write spilled to the frame map.
	`proc f {} { set name x; set $name 5; park w3 }
f`,
	// Host command that evaluates TacL internally.
	`hosteval {set a 1; set b 2; set c 3}`,
	`set i 0
while {$i < 20} { hosteval {set t 1; set t 2; set t 3; set t 4}; set i [expr $i + 1] }`,
	`foreach x {a b c d} { hosteval {unknowncmd; set u 1} }`,
	// Errors inside the host-run script keep their text through both layers.
	`hosteval {set}`,
	`hosteval {while {1} {}}`,
	// A host command's wrapped sentinel raised from inside an inlined while
	// keeps its identity and gains the construct's frame.
	`set i 0
while {$i < 3} { frozen; incr i }`,
	`set i 0
while {$i < 3} { set x [frozen]; incr i }`,
	// Shadowed constructs and multi-segment words under the budget ladder.
	`proc while {c b} { return w }
set i 0
foreach k {1 2 3} { while {$i < 3} { incr i }; set y a$k[hosteval {set q 1}]b }`,
	`shadow foreach
set i 0
while {$i < 4} { incr i; foreach x {a b} { hosteval {set t 1} }; set z $i[hosteval {set q 2}] }`,
	`set i 0
while {1} { incr i; set w x$i[if {$i == 5} { park p5 }]y }`,
}

func TestVMEdgeSemantics(t *testing.T) {
	for _, src := range vmEdgeCorpus {
		// Budgets from "trips almost immediately" through "mid-host-command"
		// to "never trips": the exact step at which ErrBudget fires — even
		// inside hosteval's nested EvalCached — must agree everywhere.
		// (No unlimited entry: some corpus scripts spin forever by design.)
		for _, budget := range []int{1, 2, 3, 5, 7, 11, 19, 40, 150, 1000} {
			want := runVMEdge(src, true, budget)
			if got := runVMEdge(src, false, budget); got != want {
				t.Errorf("budget %d src %q:\n got %+v\nwant %+v", budget, src, got, want)
			}
		}
	}
}

// TestVMBudgetMidHostCommand pins the precise failure step when the budget
// trips inside a host command's own EvalCached: the partial side effects
// before exhaustion must be identical, and the error must carry the inner
// script's line number on every engine.
func TestVMBudgetMidHostCommand(t *testing.T) {
	for _, e := range allEngines {
		in := newEngine(e.ref)
		in.MaxSteps = 4
		var effects []string
		in.Register("mark", func(_ *Interp, args []string) (string, error) {
			effects = append(effects, args[0])
			return "", nil
		})
		in.Register("hosteval", func(in *Interp, args []string) (string, error) {
			return in.EvalCached(args[0])
		})
		_, err := in.Eval("mark a\nhosteval {mark b\nmark c\nmark d\nmark e}")
		if err == nil || !errors.Is(err, ErrBudget) {
			t.Fatalf("engine %v: want budget error, got %v", e.name, err)
		}
		// Steps: mark a, hosteval, mark b, mark c, then exhaustion charging
		// mark d (the inner script's line 3). The budget error surfaces
		// through hosteval's command frame, like any host command error.
		wantErr := fmt.Sprintf("tacl: line 2: hosteval: %v after 4 steps (line 3)", ErrBudget)
		if got := err.Error(); got != wantErr {
			t.Errorf("engine %v: error = %q, want %q", e.name, got, wantErr)
		}
		if got := fmt.Sprint(effects); got != "[a b c]" {
			t.Errorf("engine %v: effects = %v, want [a b c]", e.name, got)
		}
		if in.Steps != 5 {
			t.Errorf("engine %v: steps = %d, want 5", e.name, in.Steps)
		}
	}
}

// TestPutResetsVMState checks pooled-interpreter hygiene for the VM's
// per-activation machinery: loop frames returned to the freelist must not
// pin foreach element lists, and Put must clear the test seam and line
// state so the next activation runs on the VM.
func TestPutResetsVMState(t *testing.T) {
	in := New()
	if _, err := in.Eval(`foreach x {alpha beta gamma} { set y $x }`); err != nil {
		t.Fatal(err)
	}
	if len(in.freeVMFrames) == 0 {
		t.Fatal("expected a pooled VM frame after a foreach script")
	}
	for _, fr := range in.freeVMFrames {
		for i, l := range fr.lists {
			if l != nil {
				t.Errorf("pooled frame slot %d still pins a foreach list: %v", i, l)
			}
		}
	}
	useReference(in)
	in.curLine = 7
	Put(in)
	if in.oracle != nil {
		t.Error("Put must clear the reference interpreter seam")
	}
	if in.curLine != 0 {
		t.Error("Put must clear line state")
	}
}

// TestVMStepAccountingMatchesReference spot-checks that step counts for a
// loop-heavy script are identical on both engines — the property the
// guard's cycle metering depends on.
func TestVMStepAccountingMatchesReference(t *testing.T) {
	src := `set n 0
set i 0
while {$i < 9} {
	foreach q {x y z} { set n [expr $n + 1] }
	set i [expr $i + 1]
}
set n`
	want := runVMEdge(src, true, 0)
	if want.isErr || want.out != strconv.Itoa(27) {
		t.Fatalf("reference sanity: %+v", want)
	}
	if got := runVMEdge(src, false, 0); got != want {
		t.Errorf("vm: %+v != %+v", got, want)
	}
}

// TestConcatWordAllocs pins a multi-segment word at one allocation, its
// exactly-sized result: the resident agent's `set pending
// PARK_PENDING:$me`, and a word mixing a substitution into literals.
func TestConcatWordAllocs(t *testing.T) {
	for src, want := range map[string]string{
		`set pending PARK_PENDING:$me`:        "PARK_PENDING:r-42",
		`set w <$me|[string length $me]|$me>`: "<r-42|4|r-42>",
	} {
		in := New()
		in.SetGlobal("me", "r-42")
		s, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := in.EvalScript(s); err != nil || got != want {
			t.Fatalf("%q = %q, %v; want %q", src, got, err, want)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = in.EvalScript(s) }); n > 1 {
			t.Errorf("%q allocates %.1f times, want at most 1", src, n)
		}
	}
}
