package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/folder"
)

func TestParkValidation(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	if err := s.Park("", "", folder.NewBriefcase()); err == nil {
		t.Fatal("park with empty name accepted")
	}
	if err := s.Park("x", "", folder.NewBriefcase()); err == nil {
		t.Fatal("park without CODE accepted")
	}
	if err := s.Park("x", "", nil); err == nil {
		t.Fatal("park with nil briefcase accepted")
	}
}

func TestParkTacLAndMeetWakes(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	script := `
		if {![bc_has PARK_HOP]} {
			park greeter
		}
		cab_append WOKE [bc_get PARK_HOP 0]
	`
	if _, err := RunScript(context.Background(), s, script, nil); err != nil {
		t.Fatal(err)
	}
	if !s.IsParked("greeter") || s.ParkedCount() != 1 {
		t.Fatalf("not parked: count=%d", s.ParkedCount())
	}
	// The continuation is durable cabinet state with the park metadata.
	cont := s.Cabinet().Snapshot(ParkedFolder("greeter"))
	if cont.Len() != 3 {
		t.Fatalf("continuation has %d elements, want 3", cont.Len())
	}
	enc, _ := cont.At(2)
	bc, err := folder.DecodeBriefcase(enc)
	if err != nil {
		t.Fatal(err)
	}
	if hop, _ := bc.GetString(ParkHopFolder); hop != "1" {
		t.Fatalf("PARK_HOP = %q, want 1", hop)
	}
	if !bc.Has(folder.CodeFolder) {
		t.Fatal("continuation briefcase has no CODE")
	}

	// A meet addressed to the parked name is a delivery, not a miss.
	if err := s.Meet(nil, "greeter", folder.NewBriefcase()); err != nil {
		t.Fatalf("meet of parked agent: %v", err)
	}
	s.Wait()
	if woke := s.Cabinet().Snapshot("WOKE").Strings(); len(woke) != 1 || woke[0] != "1" {
		t.Fatalf("WOKE = %v", woke)
	}
	// The run ended without re-parking: everything retired.
	if s.IsParked("greeter") || s.ParkedCount() != 0 {
		t.Fatal("still parked after completing")
	}
	if s.Cabinet().FolderLen(ParkedFolder("greeter")) != 0 ||
		s.Cabinet().FolderLen(PendingFolder("greeter")) != 0 {
		t.Fatal("spent continuation not retired from the cabinet")
	}
	// And a meet now misses like any unknown agent.
	if err := s.Meet(nil, "greeter", folder.NewBriefcase()); err == nil {
		t.Fatal("meet of retired agent succeeded")
	}
}

func TestParkedAgentDrainsDeliveries(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	script := `
		if {![bc_has PARK_HOP]} {
			park collector
		}
		while {[cab_len PARK_PENDING:collector] > 0} {
			cab_dequeue PARK_PENDING:collector
			cab_append GOT x
		}
		if {[bc_get PARK_HOP 0] < 10} {
			park collector
		}
	`
	if _, err := RunScript(context.Background(), s, script, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		bc := folder.NewBriefcase()
		bc.PutString("PAYLOAD", strconv.Itoa(i))
		if err := s.Meet(nil, "collector", bc); err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
	}
	s.Wait()
	if got := s.Cabinet().FolderLen("GOT"); got != 3 {
		t.Fatalf("collector drained %d deliveries, want 3", got)
	}
	if !s.IsParked("collector") {
		t.Fatal("collector should have re-parked")
	}
}

// TestParkClosesLostWakeupWindow: work that lands while the continuation is
// being written (after the cabinet Put, before the scheduler registration)
// finds nothing to wake — Park's post-registration re-check must catch it.
func TestParkClosesLostWakeupWindow(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	// Simulate the in-window delivery: pending work exists before Park runs.
	s.Cabinet().Append(PendingFolder("late"), folder.EncodeBriefcase(folder.NewBriefcase()))
	script := `
		if {![bc_has PARK_HOP]} {
			park late
		}
		cab_append WOKE x
	`
	if _, err := RunScript(context.Background(), s, script, nil); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if n := s.Cabinet().FolderLen("WOKE"); n != 1 {
		t.Fatalf("WOKE = %d entries, want 1 (lost-wakeup window not closed)", n)
	}
}

// TestParkWatchFolderWake: appending to the watched folder and waking its
// topic resumes the agent — the mailbox-driven wakeup path, minus mail.
func TestParkWatchFolderWake(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	script := `
		if {![bc_has PARK_HOP]} {
			park watcher INBOX
		}
		cab_append SAW [cab_len INBOX]
	`
	if _, err := RunScript(context.Background(), s, script, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.Wake("OTHER-TOPIC"); n != 0 {
		t.Fatalf("Wake on a topic nobody watches woke %d", n)
	}
	s.Cabinet().AppendString("INBOX", "item")
	if n := s.Wake("INBOX"); n != 1 {
		t.Fatalf("Wake(INBOX) woke %d, want 1", n)
	}
	s.Wait()
	if saw := s.Cabinet().Snapshot("SAW").Strings(); len(saw) != 1 || saw[0] != "1" {
		t.Fatalf("SAW = %v", saw)
	}
}

func TestRecoverParked(t *testing.T) {
	cab := folder.NewCabinet()
	cfg := SystemConfig{Seed: 1, CallTimeout: 50 * time.Millisecond}
	cfg.Site.Cabinet = cab
	sys := NewSystem(1, cfg)
	s := sys.SiteAt(0)
	script := `
		if {![bc_has PARK_HOP]} {
			park survivor INBOX
		}
		cab_append RESUMED [cab_len INBOX]
	`
	if _, err := RunScript(context.Background(), s, script, nil); err != nil {
		t.Fatal(err)
	}
	if !s.IsParked("survivor") {
		t.Fatal("not parked before crash")
	}
	sys.Wait()

	// Work arrives, then the site "crashes" before the wakeup is served:
	// only the cabinet survives into the new process.
	cab.AppendString("INBOX", "pre-crash work")
	sys2 := NewSystem(1, cfg)
	s2 := sys2.SiteAt(0)
	if s2.ParkedCount() != 0 {
		t.Fatal("fresh site already has parked agents")
	}
	if n := s2.RecoverParked(); n != 1 {
		t.Fatalf("RecoverParked = %d, want 1", n)
	}
	// The watched folder grew past the parked watermark, so recovery wakes
	// the agent immediately — no delivery needed to unstick it.
	sys2.Wait()
	if got := cab.Snapshot("RESUMED").Strings(); len(got) != 1 || got[0] != "1" {
		t.Fatalf("RESUMED = %v", got)
	}
	if s2.IsParked("survivor") {
		t.Fatal("survivor still parked after post-recovery run")
	}
}

func TestRecoverParkedIdleStaysIdle(t *testing.T) {
	cab := folder.NewCabinet()
	cfg := SystemConfig{Seed: 1, CallTimeout: 50 * time.Millisecond}
	cfg.Site.Cabinet = cab
	sys := NewSystem(1, cfg)
	script := `
		if {![bc_has PARK_HOP]} {
			park sleeper
		}
		cab_append RESUMED x
	`
	if _, err := RunScript(context.Background(), sys.SiteAt(0), script, nil); err != nil {
		t.Fatal(err)
	}
	sys.Wait()

	sys2 := NewSystem(1, cfg)
	s2 := sys2.SiteAt(0)
	if n := s2.RecoverParked(); n != 1 {
		t.Fatalf("RecoverParked = %d, want 1", n)
	}
	sys2.Wait()
	// No work arrived before the crash: the recovered agent must stay
	// parked, not spuriously resume.
	if cab.FolderLen("RESUMED") != 0 {
		t.Fatal("idle recovered agent spuriously resumed")
	}
	if !s2.IsParked("sleeper") {
		t.Fatal("recovered agent not parked")
	}
	// It still wakes on delivery.
	if err := s2.Meet(nil, "sleeper", nil); err != nil {
		t.Fatal(err)
	}
	sys2.Wait()
	if cab.FolderLen("RESUMED") != 1 {
		t.Fatal("recovered agent did not wake on delivery")
	}
}

// TestParkWakeStorm hammers a handful of re-parking agents from concurrent
// clients: every delivery must eventually be drained by a resume. This is
// the regression test for the retirement race where a delivery's Wake —
// landing between a script's re-park and the resumer's post-run check —
// consumed the fresh scheduler entry, made the agent look unparked, and
// got its live continuation retired out from under the queued resume.
func TestParkWakeStorm(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	script := `
		set me [bc_get SELF 0]
		if {![bc_has PARK_HOP]} { park $me }
		while {[cab_len PARK_PENDING:$me] > 0} {
			cab_dequeue PARK_PENDING:$me
			cab_append GOT x
		}
		park $me
	`
	const agents = 4
	for i := 0; i < agents; i++ {
		bc := folder.NewBriefcase()
		bc.PutString("SELF", fmt.Sprintf("storm-%d", i))
		if _, err := RunScript(context.Background(), s, script, bc); err != nil {
			t.Fatal(err)
		}
	}
	const clients = 4
	perClient := 500
	if testing.Short() {
		perClient = 100
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				name := fmt.Sprintf("storm-%d", (c+k)%agents)
				if err := s.Meet(nil, name, folder.NewBriefcase()); err != nil {
					t.Errorf("client %d delivery %d: %v", c, k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sys.Wait() // wakeups are tracked scheduler work
	if got := s.Cabinet().FolderLen("GOT"); got != clients*perClient {
		t.Fatalf("drained %d deliveries, want %d (lost wakeup)", got, clients*perClient)
	}
	for i := 0; i < agents; i++ {
		if !s.IsParked(fmt.Sprintf("storm-%d", i)) {
			t.Fatalf("storm-%d not parked after the storm", i)
		}
	}
}

// TestParkedAgentsAddNoGoroutinesSite is the site-level goroutine
// invariant: parking agents — continuation, cabinet state and all — spawns
// nothing.
func TestParkedAgentsAddNoGoroutinesSite(t *testing.T) {
	n := 100000
	if testing.Short() {
		n = 2000
	}
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Wait() // let any startup work drain before baselining
	before := runtime.NumGoroutine()
	bc := folder.NewBriefcase()
	bc.PutString(folder.CodeFolder, "cab_append WOKE x")
	for i := 0; i < n; i++ {
		if err := s.Park(fmt.Sprintf("resident-%d", i), "", bc); err != nil {
			t.Fatal(err)
		}
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("parking %d agents grew goroutines %d -> %d", n, before, after)
	}
	if s.ParkedCount() != n {
		t.Fatalf("ParkedCount = %d, want %d", s.ParkedCount(), n)
	}
}

// TestMillionIdleAgentsUnderGigabyte is the ROADMAP memory target: one
// million parked agents in under 1 GB of heap. ~20s of Park calls, so
// -short skips it; CI's goroutine-leak step runs it.
func TestMillionIdleAgentsUnderGigabyte(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-agent RSS assertion skipped in -short")
	}
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	s.Wait()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutinesBefore := runtime.NumGoroutine()

	const n = 1_000_000
	bc := folder.NewBriefcase()
	bc.PutString(folder.CodeFolder, "cab_append WOKE x")
	for i := 0; i < n; i++ {
		if err := s.Park("r"+strconv.Itoa(i), "", bc); err != nil {
			t.Fatal(err)
		}
	}
	if s.ParkedCount() != n {
		t.Fatalf("ParkedCount = %d", s.ParkedCount())
	}
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := after.HeapAlloc - before.HeapAlloc
	t.Logf("1M parked agents: %.1f MB heap, %d B/agent",
		float64(heap)/(1<<20), heap/n)
	if heap >= 1<<30 {
		t.Fatalf("1M idle agents use %d bytes of heap, want < 1 GiB", heap)
	}
	if g := runtime.NumGoroutine(); g > goroutinesBefore {
		t.Fatalf("goroutines grew %d -> %d", goroutinesBefore, g)
	}
}
