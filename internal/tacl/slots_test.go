package tacl

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSetGlobalSlotMigration pins the host-binding contract: a SetGlobal
// before the first eval lands in the map, the first variable-bearing
// program migrates it into its slot, and from then on host writes and
// script writes share that one storage location.
func TestSetGlobalSlotMigration(t *testing.T) {
	in := New()
	in.SetGlobal("host", "h1")
	out, err := in.Eval(`set copy $host; set copy`)
	if err != nil || out != "h1" {
		t.Fatalf("pre-bind global: got %q, %v", out, err)
	}
	if _, stale := in.globals["host"]; stale {
		t.Error("slotted name still stored in the globals map after migration")
	}
	if i := in.gscope.slotOf("host"); i < 0 || in.gscope.slots[i] != "h1" {
		t.Errorf("migrated value not in its slot (idx %d)", i)
	}

	in.SetGlobal("host", "h2")
	if out, err = in.Eval(`set copy $host; set copy`); err != nil || out != "h2" {
		t.Fatalf("post-bind SetGlobal not visible to script: got %q, %v", out, err)
	}
	if v, ok := in.Global("host"); !ok || v != "h2" {
		t.Errorf("Global read = %q, %v", v, ok)
	}

	// A name outside the bound layout keeps working through the map.
	in.SetGlobal("offlayout", "m1")
	if v, ok := in.Global("offlayout"); !ok || v != "m1" {
		t.Errorf("off-layout Global read = %q, %v", v, ok)
	}
	if out, err = in.Eval(`set offlayout`); err != nil || out != "m1" {
		t.Fatalf("off-layout read through script: got %q, %v", out, err)
	}
}

// TestParkUnwindsLiveSlotFrames parks from inside a proc whose frame holds
// a bound slot array (and a spilled computed name): on every engine the
// park must unwind all frames, and the proc-local slot value must not leak
// into the global scope's same-named slot.
func TestParkUnwindsLiveSlotFrames(t *testing.T) {
	const src = "proc f {} { set x 99; set name y; set $name 1; park w }\nset x 1\nf"
	for _, e := range allEngines {
		in := newEngine(e.ref)
		in.Register("park", func(_ *Interp, args []string) (string, error) {
			return "", ParkSignal(args[0])
		})
		_, err := in.Eval(src)
		if n, ok := IsPark(err); !ok || n != "w" {
			t.Fatalf("engine %s: want park \"w\", got %v", e.name, err)
		}
		if len(in.frames) != 0 {
			t.Errorf("engine %s: %d proc frames leaked past the park", e.name, len(in.frames))
		}
		out, err := in.Eval(`list $x [info exists y]`)
		if err != nil || out != "1 0" {
			t.Errorf("engine %s: state after park = %q, %v (want \"1 0\")", e.name, out, err)
		}
	}
}

// TestPutDropsOversizedInterpState checks the pool-hygiene caps: an interp
// whose activation grew a giant globals map or slot array hands neither
// back to the pool. White-box: reads the struct right after Put, before
// anything else can draw it from the pool.
func TestPutDropsOversizedInterpState(t *testing.T) {
	in := Get(NewTable())
	in.gscope.slots = make([]string, 0, maxPooledSlots+1)
	in.gscope.meta = make([]uint8, 0, maxPooledSlots+1)
	old := in.globals
	for i := 0; i <= maxPooledVars; i++ {
		in.globals[fmt.Sprintf("g%d", i)] = "x"
	}
	Put(in)
	if in.gscope.slots != nil || in.gscope.meta != nil {
		t.Errorf("oversized global slot array retained (cap %d)", cap(in.gscope.slots))
	}
	if len(in.globals) != 0 {
		t.Errorf("globals not cleared: %d entries", len(in.globals))
	}
	if reflect.ValueOf(in.globals).Pointer() == reflect.ValueOf(old).Pointer() {
		t.Error("oversized globals map retained instead of replaced")
	}
}

// TestPutFrameDropsOversizedState is the per-frame half: a recycled proc
// frame keeps small maps and slot arrays but drops ones grown past the cap.
func TestPutFrameDropsOversizedState(t *testing.T) {
	in := New()

	f := in.getFrame()
	f.slots = make([]string, maxPooledSlots+1)
	f.meta = make([]uint8, maxPooledSlots+1)
	oldVars := f.vars
	for i := 0; i <= maxPooledVars; i++ {
		f.vars[fmt.Sprintf("v%d", i)] = "x"
	}
	in.putFrame(f)
	got := in.freeFrames[len(in.freeFrames)-1]
	if got.slots != nil || got.meta != nil {
		t.Errorf("oversized frame slot array retained (cap %d)", cap(got.slots))
	}
	if len(got.vars) != 0 {
		t.Errorf("frame vars not cleared: %d entries", len(got.vars))
	}
	if reflect.ValueOf(got.vars).Pointer() == reflect.ValueOf(oldVars).Pointer() {
		t.Error("oversized frame vars map retained instead of replaced")
	}

	// Under-cap state is recycled in place, scrubbed.
	f2 := in.getFrame()
	f2.slots = append(f2.slots[:0], "a", "b")
	f2.meta = append(f2.meta[:0], slotLive, slotLive)
	f2.vars["k"] = "v"
	keep := f2.slots[:cap(f2.slots)]
	in.putFrame(f2)
	got2 := in.freeFrames[len(in.freeFrames)-1]
	if cap(got2.slots) == 0 || len(got2.slots) != 0 {
		t.Errorf("small slot array not recycled: len %d cap %d", len(got2.slots), cap(got2.slots))
	}
	for i := range keep {
		if keep[i] != "" {
			t.Errorf("recycled slot %d still pins %q", i, keep[i])
		}
	}
}
