package tacoma

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/tacl"
	"repro/internal/vnet"
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
	sys := core.NewNamedSystem([]vnet.SiteID{"tromso", "ithaca"}, SystemConfig{})
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
	bc := folder.NewBriefcase()
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
	in := tacl.New()
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
// sockets — and roams a TacL agent between them.
func TestTCPDeployment(t *testing.T) {
	epA, err := vnet.NewTCPEndpoint("alpha", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := vnet.NewTCPEndpoint("beta", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA.AddPeer("beta", epB.Addr())
	epB.AddPeer("alpha", epA.Addr())
	siteA := core.NewSite(epA, core.SiteConfig{})
	siteB := core.NewSite(epB, core.SiteConfig{})
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

// TestFacadeUnifiedMeet drives the unified entry point with its options.
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
	bc := folder.NewBriefcase()
	if err := a.Meet(context.Background(), "where", bc,
		core.At(b.ID()), core.Deadline(time.Now().Add(time.Minute))); err != nil {
		t.Fatal(err)
	}
	if at, _ := bc.GetString("AT"); at != "site-1" {
		t.Fatalf("At(site-1) ran at %q", at)
	}
	var h sched.Handle
	bc = folder.NewBriefcase()
	if err := a.Meet(context.Background(), "where", bc, core.Async(&h)); err != nil {
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
