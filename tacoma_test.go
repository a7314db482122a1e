package tacoma

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := NewSystem(3, SystemConfig{Seed: 1})
	defer sys.Wait()
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		bc_push TRAIL [host]
		if {[host] eq "site-0"} { jump site-1 }
		if {[host] eq "site-1"} { jump site-2 }
		bc_push TRAIL done
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	trail, err := bc.Folder("TRAIL")
	if err != nil {
		t.Fatal(err)
	}
	got := trail.Strings()
	want := []string{"site-0", "site-1", "site-2", "done"}
	if len(got) != len(want) {
		t.Fatalf("TRAIL = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TRAIL = %v", got)
		}
	}
}

func TestFacadeNamedSystem(t *testing.T) {
	sys := NewNamedSystem([]SiteID{"tromso", "ithaca"}, SystemConfig{})
	defer sys.Wait()
	if sys.Site("tromso") == nil || sys.Site("ithaca") == nil {
		t.Fatal("named sites missing")
	}
	bc, err := RunScript(context.Background(), sys.Site("tromso"), `
		if {[host] eq "tromso"} { jump ithaca }
		bc_push RESULT "at [host]"
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := bc.GetString(ResultFolder)
	if res != "at ithaca" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestFacadeNativeAgent(t *testing.T) {
	sys := NewSystem(1, SystemConfig{})
	defer sys.Wait()
	sys.SiteAt(0).Register("adder", AgentFunc(func(mc *MeetContext, bc *Briefcase) error {
		a, _ := bc.GetString("A")
		b, _ := bc.GetString("B")
		bc.PutString(ResultFolder, a+"+"+b)
		return nil
	}))
	bc := NewBriefcase()
	bc.PutString("A", "1")
	bc.PutString("B", "2")
	if err := sys.SiteAt(0).MeetClient(context.Background(), "adder", bc); err != nil {
		t.Fatal(err)
	}
	if res, _ := bc.GetString(ResultFolder); res != "1+2" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestFacadeInterp(t *testing.T) {
	in := NewInterp()
	got, err := in.Eval(`expr {2 ** 1}`)
	if err == nil {
		t.Fatalf("unsupported operator evaluated to %q", got)
	}
	got, err = in.Eval(`expr {6 * 7}`)
	if err != nil || got != "42" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestTCPDeployment wires two sites the way cmd/tacomad does — real TCP
// sockets — and roams a TacL agent between them through the public API.
func TestTCPDeployment(t *testing.T) {
	epA, err := NewTCPEndpoint("alpha", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := NewTCPEndpoint("beta", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA.AddPeer("beta", epB.Addr())
	epB.AddPeer("alpha", epA.Addr())
	siteA := NewSite(epA, SiteConfig{})
	siteB := NewSite(epB, SiteConfig{})
	defer siteA.Wait()
	defer siteB.Wait()

	siteB.Register("oracle", AgentFunc(func(mc *MeetContext, bc *Briefcase) error {
		bc.PutString("ANSWER", "42")
		return nil
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	bc, err := RunScript(ctx, siteA, `
		if {[host] eq "alpha"} { jump beta }
		meet oracle
		bc_push RESULT "oracle says [bc_get ANSWER 0], signed [host]"
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := bc.GetString(ResultFolder)
	if res != "oracle says 42, signed beta" {
		t.Fatalf("RESULT = %q", res)
	}
}

func TestFacadeSystemAgentConstants(t *testing.T) {
	sys := NewSystem(1, SystemConfig{})
	for _, name := range []string{AgTacl, AgRexec, AgCourier, AgDiffusion} {
		if _, ok := sys.SiteAt(0).Lookup(name); !ok {
			t.Errorf("system agent %q not registered", name)
		}
	}
}

func TestFacadeCabinetAccess(t *testing.T) {
	sys := NewSystem(1, SystemConfig{})
	cab := sys.SiteAt(0).Cabinet()
	cab.AppendString("NOTES", "hello")
	if !cab.ContainsString("NOTES", "hello") {
		t.Fatal("cabinet write lost")
	}
	bc, err := RunScript(context.Background(), sys.SiteAt(0), `
		bc_push RESULT [cab_list NOTES]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := bc.GetString(ResultFolder); !strings.Contains(res, "hello") {
		t.Fatalf("RESULT = %q", res)
	}
}

// TestFacadeUnifiedMeet drives the redesigned entry point and its options
// entirely through the facade.
func TestFacadeUnifiedMeet(t *testing.T) {
	sys := NewSystem(2, SystemConfig{Seed: 1})
	defer sys.Wait()
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	for _, s := range []*Site{a, b} {
		s.Register("where", AgentFunc(func(mc *MeetContext, bc *Briefcase) error {
			bc.PutString("AT", string(mc.Site.ID()))
			return nil
		}))
	}
	bc := NewBriefcase()
	if err := a.Meet(context.Background(), "where", bc,
		At(b.ID()), Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("AT"); at != "site-1" {
		t.Fatalf("At(site-1) ran at %q", at)
	}
	var h Handle
	bc = NewBriefcase()
	if err := a.Meet(context.Background(), "where", bc, Async(&h)); err != nil {
		t.Fatal(err)
	}
	if err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("AT"); at != "site-0" {
		t.Fatalf("Async ran at %q", at)
	}
	if st := a.WireStats(); st.MeetsV2 == 0 {
		t.Fatalf("WireStats = %+v, expected a sent meet", st)
	}
}

// TestFacadeSubsystemCatchUp exercises the re-exported subsystem surface:
// mesh, broker, rear guard, and mail — including a mail deposit waking a
// parked agent through the facade.
func TestFacadeSubsystemCatchUp(t *testing.T) {
	sys := NewSystem(2, SystemConfig{Seed: 1})
	defer sys.Wait()
	a, b := sys.SiteAt(0), sys.SiteAt(1)

	m := NewMesh(a, MeshConfig{})
	m.Start()
	defer m.Stop()
	var ring *Ring = m.Ring()
	if owner, ok := ring.Owner("anyone"); !ok || owner != a.ID() {
		t.Fatalf("one-site ring owner = %q, %v", owner, ok)
	}

	var br *Broker = InstallBroker(a)
	if br == nil {
		t.Fatal("InstallBroker returned nil")
	}
	var rg *RearGuard = InstallRearGuard(a)
	if rg.ActiveGuards() != 0 {
		t.Fatal("fresh rear-guard manager has active guards")
	}

	InstallMailbox(a)
	InstallMailbox(b)
	if _, err := RunScript(context.Background(), b, `
		if {![bc_has PARK_HOP]} { park fred-notifier MBOX:fred }
		cab_append NOTIFIED x
	`, nil); err != nil {
		t.Fatal(err)
	}
	msg := Message{From: "ann@site-0", To: "fred@site-1", Subject: "hi", Body: "wake up"}
	if err := SendMail(context.Background(), a, msg, false); err != nil {
		t.Fatal(err)
	}
	sys.Wait()
	if n := b.Cabinet().FolderLen("NOTIFIED"); n != 1 {
		t.Fatalf("mail deposit woke parked agent %d times, want 1", n)
	}
	msgs, err := ListMail(context.Background(), a, "fred", b.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Subject != "hi" {
		t.Fatalf("ListMail = %+v", msgs)
	}
}

func TestFacadeNetworkControls(t *testing.T) {
	sys := NewSystem(2, SystemConfig{CallTimeout: 20 * time.Millisecond})
	sys.Net.Crash("site-1")
	_, err := RunScript(context.Background(), sys.SiteAt(0), `jump site-1`, nil)
	if err == nil {
		t.Fatal("jump to crashed site succeeded")
	}
	sys.Net.Restart("site-1")
	if _, err := RunScript(context.Background(), sys.SiteAt(0), `
		if {[host] eq "site-0"} { jump site-1 }
	`, nil); err != nil {
		t.Fatalf("after restart: %v", err)
	}
}
