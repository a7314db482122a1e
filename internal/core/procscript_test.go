package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"repro/internal/folder"
	"repro/internal/vnet"
)

// procScriptSrc is the ordinary shape of a TacL agent: a one-line proc doing
// integer arithmetic with %, called in a loop around a briefcase push/pop
// and a cabinet visit. A private copy, so the allocation guard below does
// not move when a benchmark's script changes.
const procScriptSrc = `
proc mix {a b} {
	return [expr {($a * 31 + $b) % 65521}]
}
set acc [bc_get ARG 0]
set fresh 0
set i 0
while {$i < 64} {
	set acc [mix $acc $i]
	bc_push WORK [format "item-%d" [expr {$acc % 97}]]
	set v [bc_pop WORK]
	if {[cab_visit SEEN $v]} {
		set fresh [expr {$fresh + 1}]
	}
	set i [expr {$i + 1}]
}
bc_putlist OUT [list $acc $i]
`

// procScriptAllocCap is the measured allocations of one procScriptSrc meet,
// briefcase building included (23 on go1.24/amd64), plus 25%, rounded
// down. Before proc
// returns, integer expressions and proc dispatch were allocation-free the
// same meet cost about 480.
const procScriptAllocCap = 28

func procScriptMeet(t *testing.T, s *Site, arg int) *folder.Briefcase {
	bc := folder.NewBriefcase()
	bc.PutString("ARG", strconv.Itoa(arg))
	bc.Ensure(folder.CodeFolder).PushString(procScriptSrc)
	if err := s.MeetClient(context.Background(), AgTacl, bc); err != nil {
		t.Fatal(err)
	}
	return bc
}

// TestProcScriptMeetAllocs is the tier-1 allocation guard for the proc
// path: a local ag_tacl meet of procScriptSrc, in the steady state (warm
// compile caches, a cabinet that has seen every item), stays under
// procScriptAllocCap.
func TestProcScriptMeetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := NewSite(vnet.NewNetwork().AddNode("alloc"), SiteConfig{Seed: 1})
	for arg := 0; arg < 200; arg++ {
		acc := arg
		for k := 0; k < 64; k++ {
			acc = (acc*31 + k) % 65521
		}
		out, err := procScriptMeet(t, s, arg).Folder("OUT")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := out.Strings(), []string{strconv.Itoa(acc), "64"}; !slices.Equal(got, want) {
			t.Fatalf("arg %d: OUT = %v, want %v", arg, got, want)
		}
	}
	arg := 0
	n := testing.AllocsPerRun(200, func() {
		procScriptMeet(t, s, arg)
		arg++
	})
	t.Logf("%.1f allocs per meet (cap %d)", n, procScriptAllocCap)
	if n > procScriptAllocCap {
		t.Fatalf("proc-script meet allocates %.1f times per op, cap %d", n, procScriptAllocCap)
	}
}

// TestCatchDoesNotTrapPark pins that park ends the activation even inside
// catch: once Site.Park has stored the continuation, nothing after the park
// may run here, or the agent would exist twice — parked at this site and
// still running (here, jumping on to another site). The host guard only
// keeps a wrongly running agent from re-parking at the second site.
func TestCatchDoesNotTrapPark(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	script := fmt.Sprintf(`if {[host] ne %q} {
		catch {park r}
		bc_push AFTER x
		jump %s
	}`, b.ID(), b.ID())
	bc, err := RunScript(context.Background(), a, script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Has("AFTER") {
		t.Fatal("code after a caught park ran")
	}
	if !a.IsParked("r") {
		t.Fatal("agent not parked at its origin")
	}
	if n := b.Activations(); n != 0 {
		t.Fatalf("the parked agent also ran %d activation(s) at %s", n, b.ID())
	}
}
