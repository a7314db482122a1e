package tacoma

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cash"
	"repro/internal/guard"
)

// The facade drives the whole security story: keyring, policy, firewall,
// meter, signed launch, termination, and the billing record at home.
func TestFacadeGuardEndToEnd(t *testing.T) {
	ctx := context.Background()
	sys := NewSystem(2, SystemConfig{Seed: 9})
	defer sys.Wait()
	home, fw := sys.SiteAt(0), sys.SiteAt(1)

	keys := NewKeyring()
	keys.Enroll("alice")
	keys.Enroll("site/site-1")
	InstallGuard(home, NewGuard(nil, keys))

	policy := NewPolicy()
	policy.SetFirewall(true)
	policy.Grant("alice", Capability{Meet: []string{"echo"}})
	g := NewGuard(policy, keys)
	g.Meter = NewMeter(10, 1)
	InstallGuard(fw, g)

	fw.Register("echo", AgentFunc(func(mc *MeetContext, bc *Briefcase) error {
		bc.PutString(ResultFolder, "echoed")
		return nil
	}))

	// Unsigned agents bounce off the firewall.
	if _, err := RunScript(ctx, home, `if {[host] eq "site-0"} { jump site-1 }`, nil); err == nil {
		t.Fatal("unsigned agent admitted through the firewall")
	}

	// A signed, funded agent runs, pays, and returns.
	bc, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		meet echo
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bills, err := cash.NewMint().IssueMany(1, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFolder()
	for _, s := range cash.FormatECUs(bills) {
		f.PushString(s)
	}
	bc.Put(CashFolder, f)
	if err := LaunchSigned(ctx, home, bc); err != nil {
		t.Fatal(err)
	}
	if got, _ := bc.GetString(ResultFolder); got != "echoed" {
		t.Fatalf("RESULT = %q", got)
	}
	// The principal claim still travels with the returned briefcase (the
	// signature itself is checked at boundaries, before ag_tacl pops CODE).
	if p := guard.Principal(bc); p != "alice" {
		t.Fatalf("principal after roam = %q", p)
	}
	if g.Meter.Earned() == 0 {
		t.Fatal("meter collected nothing")
	}

	// A runaway is terminated and the bill lands at home.
	bc2, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		while {1} { set x 1 }
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bills2, err := cash.NewMint().IssueMany(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFolder()
	for _, s := range cash.FormatECUs(bills2) {
		f2.PushString(s)
	}
	bc2.Put(CashFolder, f2)
	err = LaunchSigned(ctx, home, bc2)
	if err == nil || !strings.Contains(err.Error(), "terminated") {
		t.Fatalf("err = %v, want termination", err)
	}
	sys.Wait()
	if home.Cabinet().FolderLen(BillingFolder) == 0 {
		t.Fatal("no billing record at the launching site")
	}
}
