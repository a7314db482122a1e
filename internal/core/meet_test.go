package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
)

func TestMeetUnifiedEntryPoint(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("RAN_AT", string(mc.Site.ID()))
		return nil
	}))
	a.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("RAN_AT", string(mc.Site.ID()))
		return nil
	}))

	// Plain context: the client entry point (what MeetClient wrapped).
	bc := folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-0" {
		t.Fatalf("ran at %q", at)
	}

	// Nil context works too.
	if err := a.Meet(nil, "echo", folder.NewBriefcase()); err != nil {
		t.Fatal(err)
	}

	// At(dest): the remote entry point (what RemoteMeet wrapped).
	bc = folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc, At(b.ID())); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-1" {
		t.Fatalf("At(site-1) ran at %q", at)
	}

	// At(self) short-circuits locally.
	bc = folder.NewBriefcase()
	if err := a.Meet(context.Background(), "echo", bc, At(a.ID())); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("RAN_AT"); at != "site-0" {
		t.Fatalf("At(self) ran at %q", at)
	}
}

func TestMeetContextIsContext(t *testing.T) {
	// *MeetContext satisfies context.Context, which is what lets every
	// pre-redesign nested-meet call site compile unchanged against the
	// unified signature — and nesting depth must still be tracked.
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	var depths []int
	s.Register("nest", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		depths = append(depths, mc.Depth)
		if mc.Depth < 3 {
			return s.Meet(mc, "nest", bc)
		}
		return nil
	}))
	if err := s.Meet(context.Background(), "nest", nil); err != nil {
		t.Fatal(err)
	}
	for i, d := range depths {
		if d != i+1 {
			t.Fatalf("depths = %v", depths)
		}
	}

	// Cancellation flows through the MeetContext's context methods.
	ctx, cancel := context.WithCancel(context.Background())
	mc := &MeetContext{Ctx: ctx}
	if mc.Err() != nil {
		t.Fatal("fresh MeetContext already cancelled")
	}
	cancel()
	if !errors.Is(mc.Err(), context.Canceled) {
		t.Fatalf("Err = %v", mc.Err())
	}
	select {
	case <-mc.Done():
	default:
		t.Fatal("Done channel not closed after cancel")
	}
	// A nil *MeetContext behaves as Background, so wrappers taking a
	// context.Context never see a panic from a typed nil.
	var nilMC *MeetContext
	if nilMC.Err() != nil || nilMC.Value("k") != nil {
		t.Fatal("nil MeetContext does not behave like Background")
	}
	if _, ok := nilMC.Deadline(); ok {
		t.Fatal("nil MeetContext reports a deadline")
	}
}

func TestMeetAsync(t *testing.T) {
	sys := testSystem(t, 1)
	s := sys.SiteAt(0)
	release := make(chan struct{})
	s.Register("slow", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		<-release
		bc.PutString("DONE", "1")
		return nil
	}))
	var h sched.Handle
	bc := folder.NewBriefcase()
	if err := s.Meet(context.Background(), "slow", bc, Async(&h)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.Done():
		t.Fatal("handle completed before the agent ran")
	default:
	}
	close(release)
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, _ := bc.GetString("DONE"); v != "1" {
		t.Fatal("async meet did not run")
	}

	// Errors propagate through the handle.
	var h2 sched.Handle
	if err := s.Meet(context.Background(), "ag_missing", nil, Async(&h2)); err != nil {
		t.Fatal(err)
	}
	if err := h2.Wait(context.Background()); !errors.Is(err, ErrNoAgent) {
		t.Fatalf("async miss error = %v", err)
	}
	s.Wait() // async meets are tracked site work
}

func TestMeetDeadline(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	// Locally the deadline reaches the agent's own context.
	a.Register("checker", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		if _, ok := mc.Ctx.Deadline(); !ok {
			t.Error("local agent saw no deadline")
		}
		return nil
	}))
	if err := a.Meet(context.Background(), "checker", nil,
		Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	b.Register("checker", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		return nil
	}))
	// Remotely it bounds the exchange; a live deadline lets the meet through.
	if err := a.Meet(context.Background(), "checker", nil, At(b.ID()),
		Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline fails the meet without running the agent.
	err := a.Meet(context.Background(), "checker", nil, At(b.ID()),
		Deadline(time.Now().Add(-time.Second)))
	if err == nil {
		t.Fatal("expired deadline met anyway")
	}
}

func TestDeprecatedWrappersBehaveIdentically(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("mark", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("VIA", string(mc.Site.ID()))
		return nil
	}))
	bc := folder.NewBriefcase()
	if err := a.RemoteMeet(context.Background(), b.ID(), "mark", bc); err != nil {
		t.Fatal(err)
	}
	if v, _ := bc.GetString("VIA"); v != "site-1" {
		t.Fatalf("RemoteMeet ran at %q", v)
	}
	a.Register("mark", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString("VIA", string(mc.Site.ID()))
		return nil
	}))
	bc = folder.NewBriefcase()
	if err := a.MeetClient(context.Background(), "mark", bc); err != nil {
		t.Fatal(err)
	}
	if v, _ := bc.GetString("VIA"); v != "site-0" {
		t.Fatalf("MeetClient ran at %q", v)
	}
}

// meetAllocs reports the steady-state allocations of one local meet of
// agent at s with bc.
func meetAllocs(t *testing.T, s *Site, agent string, bc *folder.Briefcase) float64 {
	t.Helper()
	meet := func() {
		if err := s.MeetClient(context.Background(), agent, bc); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		meet()
	}
	return testing.AllocsPerRun(500, meet)
}

// TestLocalMeetAllocs caps the pure dispatch cost of a local meet — registry
// lookup, guard probe, context build — of a no-op agent at 2 allocations.
func TestLocalMeetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const allocCap = 2
	sys := NewSystem(1, SystemConfig{Seed: 7})
	sys.SiteAt(0).Register("noop", AgentFunc(
		func(*MeetContext, *folder.Briefcase) error { return nil }))
	n := meetAllocs(t, sys.SiteAt(0), "noop", folder.NewBriefcase())
	t.Logf("%.1f allocs per meet (cap %d)", n, allocCap)
	if n > allocCap {
		t.Fatalf("local meet allocates %.1f times per op, cap %d", n, allocCap)
	}
}

// TestCabinetMeetAllocs caps a realistic service meet at 3 allocations: the
// agent reads an argument, records the visit in the site cabinet, and hands
// back a snapshot of a 256-element site folder through the briefcase.
func TestCabinetMeetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const allocCap = 3
	sys := NewSystem(1, SystemConfig{Seed: 7})
	s := sys.SiteAt(0)
	payload := bytes.Repeat([]byte("d"), 64)
	for i := 0; i < 256; i++ {
		s.Cabinet().Append("DATA", payload)
	}
	s.Register("visit", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		id, err := bc.GetString("REQ")
		if err != nil {
			return err
		}
		mc.Site.Cabinet().TestAndAppendString("SEEN", id)
		bc.Put(folder.ResultFolder, mc.Site.Cabinet().Snapshot("DATA"))
		return nil
	}))
	bc := folder.NewBriefcase()
	bc.PutString("REQ", "client-0")
	n := meetAllocs(t, s, "visit", bc)
	t.Logf("%.1f allocs per meet (cap %d)", n, allocCap)
	if n > allocCap {
		t.Fatalf("cabinet meet allocates %.1f times per op, cap %d", n, allocCap)
	}
	if got := s.Cabinet().Snapshot("SEEN").Len(); got != 1 {
		t.Errorf("SEEN holds %d visits, want 1", got)
	}
}
