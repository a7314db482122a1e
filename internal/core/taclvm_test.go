package core

import (
	"context"
	"errors"
	"fmt"
	"os"
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
	const want = `tacl: line 2: bc_push: folder: folder is frozen: "LOCKED"`
	if err.Error() != want {
		t.Errorf("error %q, want %q", err.Error(), want)
	}
}

// scriptWorkloadSrc is a loop-heavy TacL agent for the scripted-agent hot
// path: 100 iterations of briefcase push/pop, an expr-gated cabinet visit,
// and arithmetic in the while condition — ~800 interpreter steps exercising
// expr evaluation, control-flow bodies, and host-command dispatch.
const scriptWorkloadSrc = `
set total 0
set i 0
while {$i < 100} {
	bc_push WORK [format "item-%d" $i]
	set v [bc_pop WORK]
	if {[cab_visit SEEN $v]} {
		set total [expr {$total + 1}]
	}
	set i [expr {$i + 1}]
}
bc_putlist OUT [list $total]
`

// TestScriptWorkloadOut runs the loop-heavy workload and checks the OUT it
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
		bc, err := RunScript(context.Background(), sys.SiteAt(0), scriptWorkloadSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := bc.GetString("OUT"); err != nil || got != fmt.Sprint(total) {
			t.Errorf("run %d: OUT = %q, %v; want %d", run, got, err, total)
		}
	}
}

// TestScriptWorkloadMeetAllocs is the allocation cap of a scripted meet: a
// local ag_tacl meet of scriptWorkloadSrc, in the steady state,
// stays within 16 allocations.
func TestScriptWorkloadMeetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const allocCap = 16
	s := NewSite(vnet.NewNetwork().AddNode("alloc"), SiteConfig{Seed: 1})
	meet := func() {
		bc := folder.NewBriefcase()
		bc.Ensure(folder.CodeFolder).PushString(scriptWorkloadSrc)
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

// TestHeavyScriptOut runs testdata/heavy.tacl (proc calls, cabinet
// bookkeeping, string assembly) and checks the OUT it leaves against a Go
// recomputation: the loop count, the SEEN entries and the length of parts.
func TestHeavyScriptOut(t *testing.T) {
	src, err := os.ReadFile("testdata/heavy.tacl")
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	var parts strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&parts, "item-%d,", i)
	}
	sys := NewSystem(1, SystemConfig{})
	bc, err := RunScript(context.Background(), sys.SiteAt(0), string(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := sys.SiteAt(0).Cabinet().Snapshot("SEEN").Len()
	if seen != n {
		t.Errorf("SEEN holds %d names, want %d", seen, n)
	}
	want := fmt.Sprint(n, " ", seen, " ", parts.Len())
	out, err := bc.Folder("OUT")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(out.Strings(), " "); got != want {
		t.Errorf("OUT = %q, want %q", got, want)
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
