package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/folder"
	"repro/internal/tacl"
	"repro/internal/vnet"
)

// TestFrozenFolderErrorInLoop runs a loop that mutates a frozen briefcase
// folder: the host call inlined in the loop body must refuse with
// folder.ErrFrozen — identity kept through the VM's decoration, and the
// exact text pinned.
func TestFrozenFolderErrorInLoop(t *testing.T) {
	const src = `set i 0
while {$i < 3} { bc_push LOCKED [format "x-%d" $i]; set i [expr $i + 1] }`
	sys := NewSystem(1, SystemConfig{})
	bc := folder.NewBriefcase()
	bc.Ensure("LOCKED").Freeze()
	_, err := RunScript(context.Background(), sys.SiteAt(0), src, bc)
	if !errors.Is(err, folder.ErrFrozen) {
		t.Fatalf("want ErrFrozen, got %v", err)
	}
	const want = `tacl: line 1: bc_push: folder: folder is frozen: "LOCKED"`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err.Error(), want)
	}
}

// TestScriptWorkloadOut runs the benchmark workload and checks the OUT it
// leaves against a Go recomputation: every item is fresh on the first run
// at a site and seen on the second.
func TestScriptWorkloadOut(t *testing.T) {
	sys := NewSystem(1, SystemConfig{})
	seen := map[string]bool{}
	for run := 0; run < 2; run++ {
		total := 0
		for i := 0; i < 100; i++ {
			if v := fmt.Sprintf("item-%d", i); !seen[v] {
				seen[v] = true
				total++
			}
		}
		bc, err := RunScript(context.Background(), sys.SiteAt(0), ScriptWorkloadSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := bc.GetString("OUT"); err != nil || got != fmt.Sprint(total) {
			t.Errorf("run %d: OUT = %q, %v; want %d", run, got, err, total)
		}
	}
}

// TestScriptWorkloadMeetAllocs is the tier-1 allocation cap of the script
// lane: a local ag_tacl meet of ScriptWorkloadSrc, in the steady state,
// stays within 16 allocations.
func TestScriptWorkloadMeetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const allocCap = 16
	s := NewSite(vnet.NewNetwork().AddNode("alloc"), SiteConfig{Seed: 1})
	meet := func() {
		bc := folder.NewBriefcase()
		bc.Ensure(folder.CodeFolder).PushString(ScriptWorkloadSrc)
		if err := s.MeetClient(context.Background(), AgTacl, bc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		meet()
	}
	n := testing.AllocsPerRun(200, meet)
	t.Logf("%.1f allocs per meet (cap %d)", n, allocCap)
	if n > allocCap {
		t.Fatalf("script-workload meet allocates %.1f times per op, cap %d", n, allocCap)
	}
}

// TestRemoteRepeatOverflow sends an agent whose one line asks string repeat
// for a result whose size overflows int: the arrival site refuses with the
// size error instead of panicking.
func TestRemoteRepeatOverflow(t *testing.T) {
	sys := NewSystem(2, SystemConfig{})
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	bc := folder.NewBriefcase()
	bc.Ensure(folder.CodeFolder).PushString(`string repeat abcd 4611686018427387904`)
	err := a.Meet(context.Background(), AgTacl, bc, At(b.ID()))
	if err == nil || !strings.Contains(err.Error(), tacl.ErrTooLarge.Error()) {
		t.Fatalf("remote meet: err = %v, want the size error", err)
	}
}
