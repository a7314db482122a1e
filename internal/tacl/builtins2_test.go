package tacl

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestSwitchExact(t *testing.T) {
	evalCases(t, map[string]string{
		`switch b {a {set r 1} b {set r 2} c {set r 3}}`:   "2",
		`switch z {a {set r 1} default {set r dflt}}`:      "dflt",
		`switch z {a {set r 1} b {set r 2}}`:               "",
		`switch -exact b {a {set r 1} b {set r 2}}`:        "2",
		`set x c; switch $x {a {set r 1} c {set r got-c}}`: "got-c",
		`switch b a {set r 1} b {set r 2}`:                 "2", // inline form
	})
}

func TestSwitchGlob(t *testing.T) {
	evalCases(t, map[string]string{
		`switch -glob hello {h* {set r prefix} default {set r no}}`:   "prefix",
		`switch -glob hello {x* {set r no} ?ello {set r qmark}}`:      "qmark",
		`switch -glob hello {x* {set r no} default {set r fallthru}}`: "fallthru",
	})
}

func TestSwitchFallthrough(t *testing.T) {
	got := mustEval(t, `switch b {a - b - c {set r abc} default {set r no}}`)
	if got != "abc" {
		t.Fatalf("got %q", got)
	}
}

func TestSwitchErrors(t *testing.T) {
	in := New()
	if _, err := in.Eval(`switch`); err == nil {
		t.Fatal("bare switch succeeded")
	}
	if _, err := in.Eval(`switch v {a}`); err == nil {
		t.Fatal("pattern without body succeeded")
	}
	if _, err := in.Eval(`switch b {a - b -}`); err == nil {
		t.Fatal("trailing fallthrough succeeded")
	}
}

func TestLassign(t *testing.T) {
	evalCases(t, map[string]string{
		`lassign {1 2 3} a b; list $a $b`:  "1 2",
		`lassign {1 2 3} a b`:              "3", // remainder returned
		`lassign {1} a b c; list $a $b $c`: "1 {} {}",
		`lassign {x y} a b`:                "",
	})
}

func TestLinsert(t *testing.T) {
	evalCases(t, map[string]string{
		`linsert {a b c} 1 X`:   "a X b c",
		`linsert {a b c} 0 X Y`: "X Y a b c",
		`linsert {a b c} end X`: "a b c X",
		`linsert {a b c} 99 X`:  "a b c X",
		`linsert {} 0 only`:     "only",
	})
}

func TestLset(t *testing.T) {
	evalCases(t, map[string]string{
		`set l {a b c}; lset l 1 B; set l`: "a B c",
		`set l {a b c}; lset l end Z`:      "a b Z",
	})
	in := New()
	if _, err := in.Eval(`set l {a}; lset l 5 X`); err == nil {
		t.Fatal("out of range lset succeeded")
	}
	if _, err := in.Eval(`lset missing 0 X`); err == nil {
		t.Fatal("lset on unset variable succeeded")
	}
}

func TestLrepeat(t *testing.T) {
	evalCases(t, map[string]string{
		`lrepeat 3 x`:   "x x x",
		`lrepeat 2 a b`: "a b a b",
		`lrepeat 0 a`:   "",
	})
	in := New()
	if _, err := in.Eval(`lrepeat -1 x`); err == nil {
		t.Fatal("negative count succeeded")
	}
	if _, err := in.Eval(`lrepeat 99999999 a b c`); err == nil {
		t.Fatal("huge lrepeat succeeded")
	}
}

func TestStringExtras(t *testing.T) {
	evalCases(t, map[string]string{
		`string last l hello`:             "3",
		`string last zz hello`:            "-1",
		`string replace hello 1 3 EY`:     "hEYo",
		`string replace hello 0 end gone`: "gone",
		`string replace hello 9 12 x`:     "hello",
		`string reverse abc`:              "cba",
		`string reverse ""`:               "",
		`string map {a 1 b 2} abcab`:      "12c12",
		`string map {} plain`:             "plain",
		`string is integer 42`:            "1",
		`string is integer 4.2`:           "0",
		`string is double 4.2`:            "1",
		`string is double abc`:            "0",
		`string is alpha hello`:           "1",
		`string is alpha h3llo`:           "0",
		`string is digit 123`:             "1",
		`string is digit 12a`:             "0",
	})
}

func TestStringExtrasErrors(t *testing.T) {
	bad := []string{
		`string last onearg`,
		`string replace s 1`,
		`string map {odd} s`,
		`string is nosuchclass v`,
		`string reverse a b`,
	}
	for _, src := range bad {
		in := New()
		if _, err := in.Eval(src); err == nil {
			t.Errorf("%q succeeded", src)
		}
	}
}

func TestSwitchUsedForAgentDispatch(t *testing.T) {
	// The idiom agents use: dispatch on the current host.
	got := mustEval(t, `
		proc whereami {h} {
			switch -glob $h {
				site-0   {return origin}
				site-*   {return roaming}
				default  {return lost}
			}
		}
		list [whereami site-0] [whereami site-7] [whereami mars]
	`)
	if got != "origin roaming lost" {
		t.Fatalf("got %q", got)
	}
}

func TestExtrasListedInInfoCommands(t *testing.T) {
	in := New()
	out, err := in.Eval(`info commands`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"switch", "lassign", "linsert", "lset", "lrepeat"} {
		if !strings.Contains(out, want) {
			t.Errorf("info commands missing %q", want)
		}
	}
}

func TestUpvarCallerFrame(t *testing.T) {
	got := mustEval(t, `
		proc bump {varname} {
			upvar 1 $varname v
			incr v
		}
		proc caller {} {
			set count 10
			bump count
			bump count
			return $count
		}
		caller
	`)
	if got != "12" {
		t.Fatalf("count = %q, want 12", got)
	}
}

func TestUpvarGlobalLevel(t *testing.T) {
	got := mustEval(t, `
		set total 0
		proc add {n} {
			upvar #0 total t
			set t [expr {$t + $n}]
		}
		add 3; add 4
		set total
	`)
	if got != "7" {
		t.Fatalf("total = %q", got)
	}
}

func TestUpvarSameNameGlobal(t *testing.T) {
	got := mustEval(t, `
		set g 1
		proc f {} { upvar #0 g g; incr g }
		f
		set g
	`)
	if got != "2" {
		t.Fatalf("g = %q", got)
	}
}

func TestUpvarUnsetAndExists(t *testing.T) {
	got := mustEval(t, `
		proc wipe {varname} {
			upvar 1 $varname v
			set had [info exists v]
			unset v
			return $had
		}
		proc caller {} {
			set x here
			set had [wipe x]
			list $had [info exists x]
		}
		caller
	`)
	if got != "1 0" {
		t.Fatalf("got %q", got)
	}
}

func TestUpvarErrors(t *testing.T) {
	in := New()
	if _, err := in.Eval(`upvar 1 a b`); err == nil {
		t.Fatal("upvar at top level succeeded")
	}
	if _, err := in.Eval(`proc f {} { upvar 5 a b }; f`); err == nil {
		t.Fatal("unsupported level accepted")
	}
	if _, err := in.Eval(`proc f {} { upvar }; f`); err == nil {
		t.Fatal("bare upvar accepted")
	}
}

func TestUplevelRunsInCallerScope(t *testing.T) {
	got := mustEval(t, `
		proc setter {} {
			uplevel 1 {set injected by-setter}
		}
		proc caller {} {
			setter
			return $injected
		}
		caller
	`)
	if got != "by-setter" {
		t.Fatalf("injected = %q", got)
	}
}

func TestUplevelGlobalScope(t *testing.T) {
	got := mustEval(t, `
		proc deep {} { uplevel #0 {set g set-at-top} }
		proc mid {} { deep }
		mid
		set g
	`)
	if got != "set-at-top" {
		t.Fatalf("g = %q", got)
	}
}

func TestUplevelNestedCallsPreserveFrames(t *testing.T) {
	// A proc called from inside uplevel must not corrupt the suspended
	// frame (slice aliasing hazard).
	got := mustEval(t, `
		proc helper {} { return ok }
		proc middle {} {
			set mine precious
			uplevel 1 {helper}
			return $mine
		}
		proc outer {} { middle }
		outer
	`)
	if got != "precious" {
		t.Fatalf("mine = %q", got)
	}
}

// TestRepeatCountOverflow pins the size checks of string repeat and
// lrepeat against counts whose product with the length overflows int: a
// typed error, never a runtime panic.
func TestRepeatCountOverflow(t *testing.T) {
	for _, src := range []string{
		`string repeat abcd 4611686018427387904`,
		`string repeat ab 9223372036854775807`,
		`string repeat ab 8388609`,
		`lrepeat 4611686018427387904 a b c d`,
		`lrepeat 9223372036854775807 x y`,
		`lrepeat 524289 x y`,
	} {
		_, err := New().Eval(src)
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%q: err = %v, want ErrTooLarge", src, err)
		}
	}
	for src, want := range map[string]int{
		`string length [string repeat ab 8388608]`:             1 << 24,
		`llength [lrepeat 524288 x y]`:                         1 << 20,
		`llength [lrepeat 9223372036854775807]`:                0,
		`string length [string repeat {} 9223372036854775807]`: 0,
	} {
		if got, err := New().Eval(src); err != nil || got != strconv.Itoa(want) {
			t.Errorf("%q = %q, %v; want %d", src, got, err, want)
		}
	}
}
