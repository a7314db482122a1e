package tacl

import (
	"strconv"
	"sync"
	"testing"
)

// TestCatchPassesPark pins that catch never traps a park: the kernel has
// already stored the agent's continuation when the signal is raised, so
// running on past it would duplicate the agent. jump behaves the same.
func TestCatchPassesPark(t *testing.T) {
	for _, e := range allEngines {
		for _, src := range []string{
			`set after 0; catch {park me} m; set after 1`,
			`set after 0; proc p {} { catch {park me} }; p; set after 1`,
			`set after 0; catch {expr {[park me]}}; set after 1`,
			`set after 0; while {1} { catch {park me}; break }; set after 1`,
		} {
			in := newEngine(e.ref)
			in.Register("park", func(_ *Interp, args []string) (string, error) {
				return "", ParkSignal(args[0])
			})
			_, err := in.Eval(src)
			if name, ok := IsPark(err); !ok || name != "me" {
				t.Errorf("%s: %q: err = %v, want the park signal", e.name, src, err)
			}
			if v, _ := in.Global("after"); v != "0" {
				t.Errorf("%s: %q: after = %q, want 0: code after the park ran", e.name, src, v)
			}
		}
	}
}

// TestProcCallAllocFree pins the steady-state proc path at zero
// allocations: the call, parameter binding, an integer body and the return
// (integer results render into the arena, whose pages amortize to nothing
// per call).
func TestProcCallAllocFree(t *testing.T) {
	in := New()
	if _, err := in.Eval(`
		proc mix {a b} { return [expr {($a * 31 + $b) % 65521}] }
		proc run {n} {
			set acc 7
			set i 0
			while {$i < $n} {
				set acc [mix $acc $i]
				set i [expr {$i + 1}]
			}
			return $acc
		}`); err != nil {
		t.Fatal(err)
	}
	call, err := Parse(`run 50`)
	if err != nil {
		t.Fatal(err)
	}
	want := 7
	for i := 0; i < 50; i++ {
		want = (want*31 + i) % 65521
	}
	for i := 0; i < 10; i++ {
		if got, err := in.EvalScript(call); err != nil || got != strconv.Itoa(want) {
			t.Fatalf("run 50 = %q, %v; want %d", got, err, want)
		}
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = in.EvalScript(call) }); n != 0 {
		t.Fatalf("50 proc calls allocate %.1f times, want 0", n)
	}
}

// TestIntProgShapes pins which compiled expressions get an integer
// program: operator trees over slot variables and integer constants do;
// a bare operand (whose text is returned verbatim), text comparison,
// floats and substitutions keep the generic AST.
func TestIntProgShapes(t *testing.T) {
	for src, want := range map[string]int{
		`($a * 31 + $b) % 65521`: 7,
		`$a < 64`:                3,
		`$a + 1`:                 3,
		`-$a / $b >= 2`:          6,
		`$a == $b`:               3,
		`$a`:                     0,
		`+$a`:                    0,
		`$a eq $b`:               0,
		`$a + 1.5`:               0,
		`$a + [set b]`:           0,
		`abs($a) + 1`:            0,
		`$a+($a+($a+($a+($a+($a+($a+($a+($a+1))))))))`: 0, // stack too deep
	} {
		c := newCompiler(nil)
		ref := c.prog.exprs[c.exprRefIdx(src)]
		if ref.prog == nil {
			t.Fatalf("%q does not compile", src)
		}
		got := 0
		if ref.ints != nil {
			got = len(ref.ints.ops)
		}
		if got != want {
			t.Errorf("%q: integer program of %d ops, want %d", src, got, want)
		}
	}
}

// TestProcSharedAcrossInterps runs many interpreters at once that define
// the same proc — they share its parsed body, compiled layout and resolved
// parameter slots, and the process-wide proc mark on its symbol — under
// the race detector's eye.
func TestProcSharedAcrossInterps(t *testing.T) {
	const src = `proc twice {n} { return [expr {$n * 2}] }; set r 0; for {set i 0} {$i < 20} {incr i} { set r [twice $r] ; incr r }; set r`
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				in := Get(builtinTable())
				got, err := in.Eval(src)
				Put(in)
				if err != nil || got != "1048575" {
					t.Errorf("got %q, %v; want 1048575", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
