package guard

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cash"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

func ctxb() context.Context { return context.Background() }

// --- signatures ---

func TestSignVerifyRoundTrip(t *testing.T) {
	keys := NewKeyring()
	keys.Enroll("alice")
	bc, err := SignedScript(keys, "alice", "site-0", `bc_push RESULT ok`, nil)
	if err != nil {
		t.Fatal(err)
	}
	principal, err := Verify(keys, bc)
	if err != nil {
		t.Fatal(err)
	}
	if principal != "alice" {
		t.Fatalf("principal = %q", principal)
	}
	if Principal(bc) != "alice" {
		t.Fatalf("Principal = %q", Principal(bc))
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	keys := NewKeyring()
	keys.Enroll("alice")
	bc, err := SignedScript(keys, "alice", "site-0", `bc_push RESULT ok`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A hostile site swaps the agent's code.
	bc.Put(folder.CodeFolder, folder.OfStrings(`cab_append LOOT everything`))
	if _, err := Verify(keys, bc); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
	// ... or redirects the billing address.
	bc, _ = SignedScript(keys, "alice", "site-0", `bc_push RESULT ok`, nil)
	bc.PutString(HomeFolder, "evil-site")
	if _, err := Verify(keys, bc); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestVerifyUnsignedAndUnknown(t *testing.T) {
	keys := NewKeyring()
	if _, err := Verify(keys, folder.NewBriefcase()); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("err = %v, want ErrUnsigned", err)
	}
	other := NewKeyring()
	other.Enroll("mallory")
	bc, err := SignedScript(other, "mallory", "", `bc_push RESULT ok`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(keys, bc); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("err = %v, want ErrUnknownPrincipal", err)
	}
}

func TestSignUnknownPrincipal(t *testing.T) {
	keys := NewKeyring()
	if err := Sign(keys, "nobody", folder.NewBriefcase()); !errors.Is(err, ErrUnknownPrincipal) {
		t.Fatalf("err = %v, want ErrUnknownPrincipal", err)
	}
}

// --- capabilities ---

func TestCapabilityMatching(t *testing.T) {
	c := compileCap(Capability{Meet: []string{"validator", "ag_*"}})
	for agent, want := range map[string]bool{
		"validator": true, "ag_mail": true, "broker": false, "": false,
	} {
		if got := c.meet.allows(agent); got != want {
			t.Errorf("allows(%q) = %v, want %v", agent, got, want)
		}
	}
	// nil list is unrestricted; empty non-nil list denies everything.
	open := compileCap(Capability{})
	if !open.meet.allows("anything") {
		t.Error("nil Meet should allow everything")
	}
	closed := compileCap(Capability{Meet: []string{}})
	if closed.meet.allows("anything") {
		t.Error("empty Meet should deny everything")
	}
}

// --- ACL enforcement on the meet path ---

func newGuardedPair(t *testing.T) (*core.System, *Keyring, *Policy, *Policy) {
	t.Helper()
	sys := core.NewSystem(2, core.SystemConfig{Seed: 11})
	keys := NewKeyring()
	p0, p1 := NewPolicy(), NewPolicy()
	Install(sys.SiteAt(0), New(p0, keys))
	Install(sys.SiteAt(1), New(p1, keys))
	t.Cleanup(sys.Wait)
	return sys, keys, p0, p1
}

func TestACLBlocksForbiddenMeet(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	sys.SiteAt(1).Register("secrets", core.AgentFunc(
		func(_ *core.MeetContext, bc *folder.Briefcase) error {
			bc.PutString("SECRET", "the plans")
			return nil
		}))
	keys.Enroll("alice")
	p1.Grant("alice", Capability{Meet: []string{"harmless"}})

	bc, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		meet secrets
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "may not meet") {
		t.Fatalf("err = %v, want ACL refusal", err)
	}
	if bc.Has("SECRET") {
		t.Fatal("blocked agent still obtained the secret")
	}
}

func TestACLAllowsGrantedMeet(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	sys.SiteAt(1).Register("greeter", core.AgentFunc(
		func(_ *core.MeetContext, bc *folder.Briefcase) error {
			bc.PutString(folder.ResultFolder, "hello")
			return nil
		}))
	keys.Enroll("alice")
	p1.Grant("alice", Capability{Meet: []string{"greeter"}})

	bc, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		meet greeter
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatal(err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "hello" {
		t.Fatalf("RESULT = %q", got)
	}
}

func TestACLCabinetReadWrite(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	sys.SiteAt(1).Cabinet().AppendString("PUBLIC", "open data")
	sys.SiteAt(1).Cabinet().AppendString("VAULT", "classified")
	keys.Enroll("alice")
	p1.Grant("alice", Capability{Read: []string{"PUBLIC"}, Write: []string{"SCRATCH"}})

	run := func(src string) error {
		bc, err := SignedScript(keys, "alice", "site-0", src, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Launch(ctxb(), sys.SiteAt(0), bc)
	}
	if err := run("if {[host] eq \"site-0\"} { jump site-1 }\nbc_push OUT [cab_list PUBLIC]"); err != nil {
		t.Fatalf("allowed read failed: %v", err)
	}
	if err := run("if {[host] eq \"site-0\"} { jump site-1 }\nbc_push OUT [cab_list VAULT]"); err == nil ||
		!strings.Contains(err.Error(), "may not read") {
		t.Fatalf("vault read: err = %v, want refusal", err)
	}
	if err := run("if {[host] eq \"site-0\"} { jump site-1 }\ncab_append SCRATCH note"); err != nil {
		t.Fatalf("allowed write failed: %v", err)
	}
	if err := run("if {[host] eq \"site-0\"} { jump site-1 }\ncab_append PUBLIC graffiti"); err == nil ||
		!strings.Contains(err.Error(), "may not write") {
		t.Fatalf("public write: err = %v, want refusal", err)
	}
}

// --- firewall at the simulated network boundary ---

func TestFirewallRejectsUnsigned(t *testing.T) {
	sys, _, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)

	_, err := core.RunScript(ctxb(), sys.SiteAt(0), `if {[host] eq "site-0"} { jump site-1 }`, nil)
	if !errors.Is(err, core.ErrRefused) || !strings.Contains(err.Error(), "unsigned") {
		t.Fatalf("err = %v, want unsigned refusal", err)
	}
}

func TestFirewallRejectsUnknownAndForged(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	keys.Enroll("alice")
	p1.Grant("alice", Capability{})

	// mallory signs with a key the firewall has never seen.
	mkeys := NewKeyring()
	mkeys.Enroll("mallory")
	bc, err := SignedScript(mkeys, "mallory", "site-0", `if {[host] eq "site-0"} { jump site-1 }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "unknown principal") {
		t.Fatalf("err = %v, want unknown-principal refusal", err)
	}

	// alice's briefcase, tampered in flight (code swapped after signing).
	bc, err = SignedScript(keys, "alice", "site-0", `if {[host] eq "site-0"} { jump site-1 }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc.Put(folder.CodeFolder, folder.OfStrings(`cab_append LOOT x`))
	err = sys.SiteAt(0).RemoteMeet(ctxb(), "site-1", core.AgTacl, bc)
	if err == nil || !strings.Contains(err.Error(), "bad briefcase signature") {
		t.Fatalf("err = %v, want bad-signature refusal", err)
	}
}

func TestFirewallAdmitsSignedWithCapability(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	keys.Enroll("alice")
	p1.Grant("alice", Capability{})

	bc, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push RESULT arrived
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatal(err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "arrived" {
		t.Fatalf("RESULT = %q", got)
	}
}

func TestFirewallRejectsSignedWithoutCapability(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	keys.Enroll("bob") // enrolled, but no Grant at site-1 and no default

	bc, err := SignedScript(keys, "bob", "site-0", `if {[host] eq "site-0"} { jump site-1 }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "holds no capability") {
		t.Fatalf("err = %v, want no-capability refusal", err)
	}
}

func TestFirewallRequireCash(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	p1.SetRequireCash(true)
	keys.Enroll("alice")
	p1.Grant("alice", Capability{})

	bc, err := SignedScript(keys, "alice", "site-0", `if {[host] eq "site-0"} { jump site-1 }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "without funds") {
		t.Fatalf("err = %v, want no-funds refusal", err)
	}
}

// --- metered meets ---

// fundBriefcase mints unit bills into the briefcase CASH folder.
func fundBriefcase(t *testing.T, mint *cash.Mint, bc *folder.Briefcase, units int) {
	t.Helper()
	amounts := make([]int64, units)
	for i := range amounts {
		amounts[i] = 1
	}
	bills, err := mint.IssueMany(amounts...)
	if err != nil {
		t.Fatal(err)
	}
	bc.Put(CashFolder, folder.OfStrings(cash.FormatECUs(bills)...))
}

func TestMeteredMeetTerminatesAndBillsHome(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	keys.Enroll("bob")
	keys.Enroll(SitePrincipal("site-1")) // so the billing notice verifies at home
	p1.Grant("bob", Capability{})
	meter := NewMeter(10, 1)
	sys.SiteAt(1).Guard().(*Guard).Meter = meter
	mint := cash.NewMint()

	bc, err := SignedScript(keys, "bob", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		while {1} { set x 1 }
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fundBriefcase(t, mint, bc, 5)

	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "terminated at site-1") {
		t.Fatalf("err = %v, want mid-itinerary termination", err)
	}
	sys.Wait() // let the detached billing notice land

	if got := meter.Earned(); got != 5 {
		t.Fatalf("meter earned %d, want 5 (the agent's whole budget)", got)
	}
	if got := meter.Treasury().Balance(); got != 5 {
		t.Fatalf("treasury balance %d, want 5", got)
	}
	recs := meter.Records()
	if len(recs) != 1 || recs[0].Principal != "bob" || recs[0].Amount != 5 {
		t.Fatalf("records = %+v", recs)
	}
	// The billing record is visible at the launching site.
	home := sys.SiteAt(0).Cabinet().Snapshot(BillingFolder)
	if home.Len() != 1 {
		t.Fatalf("home BILLING has %d records, want 1", home.Len())
	}
	rec, err := DecodeBillingRecord(home.Strings()[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Principal != "bob" || rec.Site != "site-1" || rec.Amount != 5 {
		t.Fatalf("billing record = %+v", rec)
	}
	// Money is conserved: everything minted is now in the site treasury.
	if mint.Issued() != 5 {
		t.Fatalf("issued %d", mint.Issued())
	}
}

func TestMeteredMeetWithinBudgetSucceeds(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("bob")
	p1.Grant("bob", Capability{})
	meter := NewMeter(10, 1)
	sys.SiteAt(1).Guard().(*Guard).Meter = meter
	mint := cash.NewMint()

	bc, err := SignedScript(keys, "bob", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push RESULT [ecu_balance]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fundBriefcase(t, mint, bc, 5)
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatal(err)
	}
	if meter.Earned() == 0 {
		t.Fatal("meter collected nothing from a funded activation")
	}
	if meter.Earned()+cash.FolderBalance(mustFolder(t, bc, CashFolder)) != 5 {
		t.Fatalf("money not conserved: earned %d, remaining %d",
			meter.Earned(), cash.FolderBalance(mustFolder(t, bc, CashFolder)))
	}
	if len(meter.Records()) != 0 {
		t.Fatalf("no termination, but records = %+v", meter.Records())
	}
}

func TestUnfundedActivationRunsFreeWithoutRequireCash(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("bob")
	p1.Grant("bob", Capability{})
	sys.SiteAt(1).Guard().(*Guard).Meter = NewMeter(10, 1)

	bc, err := SignedScript(keys, "bob", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push RESULT free
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatal(err)
	}
}

// --- hostile in-script tampering ---

func TestScriptCannotShedSignature(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	sys.SiteAt(1).Register("secrets", core.AgentFunc(
		func(_ *core.MeetContext, bc *folder.Briefcase) error {
			bc.PutString("SECRET", "leaked")
			return nil
		}))
	keys.Enroll("eve")
	p1.Grant("eve", Capability{Meet: []string{}})

	// eve tries to drop her identity and meet the forbidden agent.
	bc, err := SignedScript(keys, "eve", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_del SIG
		meet secrets
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "guard-managed") {
		t.Fatalf("err = %v, want guard-managed refusal", err)
	}
	if bc.Has("SECRET") {
		t.Fatal("SIG-shedding agent reached the secrets agent")
	}
}

func TestFirewallDeniesUnsignedLocalMeetsByDefault(t *testing.T) {
	// Even if an agent somehow reached a firewall site without a SIG
	// folder, "no grant, no default" must deny — not fall open.
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	keys.Enroll("eve")
	p1.Grant("eve", Capability{Meet: []string{}})
	fw := sys.SiteAt(1)
	fw.Register("secrets", core.AgentFunc(
		func(*core.MeetContext, *folder.Briefcase) error { return nil }))

	err := fw.Meet(nil, "secrets", folder.NewBriefcase())
	if err == nil || !strings.Contains(err.Error(), "may not meet") {
		t.Fatalf("err = %v, want denial for unsigned briefcase at firewall", err)
	}
}

func TestScriptCannotForgeCash(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("eve")
	p1.Grant("eve", Capability{})
	sys.SiteAt(1).Guard().(*Guard).Meter = NewMeter(10, 1)

	bc, err := SignedScript(keys, "eve", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push CASH "9999|0123456789abcdef0123456789abcdef"
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "guard-managed") {
		t.Fatalf("err = %v, want guard-managed refusal", err)
	}
}

func TestMeterRejectsCounterfeitBills(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("eve")
	p1.Grant("eve", Capability{})
	mint := cash.NewMint()
	meter := NewMeter(10, 1)
	meter.Mint = mint
	sys.SiteAt(1).Guard().(*Guard).Meter = meter

	bc, err := SignedScript(keys, "eve", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		while {1} { set x 1 }
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Well-formed ECU strings whose serials the mint never issued.
	bc.Put(CashFolder, folder.OfStrings(
		"9999|0123456789abcdef0123456789abcdef",
		"9999|fedcba9876543210fedcba9876543210",
	))
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "counterfeit") {
		t.Fatalf("err = %v, want counterfeit termination", err)
	}
	if got := meter.Earned(); got != 0 {
		t.Fatalf("meter booked %d counterfeit ECUs as revenue", got)
	}
	if mint.Frauds() == 0 {
		t.Fatal("mint recorded no fraud attempt")
	}
}

func TestScriptCannotEscalateViaSignBc(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	p1.SetFirewall(true)
	sys.SiteAt(1).Register("secrets", core.AgentFunc(
		func(*core.MeetContext, *folder.Briefcase) error { return nil }))
	keys.Enroll("alice")
	keys.Enroll("eve")
	p1.Grant("alice", Capability{Meet: []string{"secrets"}})
	p1.Grant("eve", Capability{Meet: []string{}})

	// eve tries to re-sign her briefcase as the broader-privileged alice
	// using the firewall's own (symmetric) verification key.
	bc, err := SignedScript(keys, "eve", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		sign_bc alice DATA
		meet secrets
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc.PutString("DATA", "x")
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "disabled at sites enforcing capabilities") {
		t.Fatalf("err = %v, want sign_bc refusal", err)
	}
}

func TestScriptCannotRedirectBillingHome(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("eve")
	p1.Grant("eve", Capability{})
	sys.SiteAt(1).Guard().(*Guard).Meter = NewMeter(10, 1)

	bc, err := SignedScript(keys, "eve", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_del HOME
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), sys.SiteAt(0), bc)
	if err == nil || !strings.Contains(err.Error(), "guard-managed") {
		t.Fatalf("err = %v, want guard-managed refusal for HOME", err)
	}
}

func TestOpenSiteAdmitsUnknownPrincipal(t *testing.T) {
	// A metering-only (non-firewall) guarded site must not reject agents
	// signed for some other trust domain.
	sys, _, _, _ := newGuardedPair(t)
	elsewhere := NewKeyring()
	elsewhere.Enroll("stranger")
	bc, err := SignedScript(elsewhere, "stranger", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push RESULT welcomed
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatalf("open site rejected unknown-principal signature: %v", err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "welcomed" {
		t.Fatalf("RESULT = %q", got)
	}
	// So does an unsigned local meet of a native agent.
	sys.SiteAt(0).Register("noop", core.AgentFunc(
		func(*core.MeetContext, *folder.Briefcase) error { return nil }))
	if err := sys.SiteAt(0).MeetClient(ctxb(), "noop", folder.NewBriefcase()); err != nil {
		t.Fatalf("open site refused an unsigned local meet: %v", err)
	}
}

func TestSpoofedBillingNoticeQuarantined(t *testing.T) {
	sys, keys, _, _ := newGuardedPair(t)
	home := sys.SiteAt(0)

	// An unsigned fabricated notice must not reach the attested log.
	fake := folder.NewBriefcase()
	fake.Ensure(BillingFolder).PushString("alice|ag_tacl|fw|1000|999|budget exhausted: fabricated")
	if err := sys.SiteAt(1).RemoteMeet(ctxb(), "site-0", AgBilling, fake); err != nil {
		t.Fatal(err)
	}
	if n := home.Cabinet().FolderLen(BillingFolder); n != 0 {
		t.Fatalf("forged notice reached the attested BILLING log (%d records)", n)
	}
	if n := home.Cabinet().FolderLen(UnverifiedBillingFolder); n != 1 {
		t.Fatalf("forged notice not quarantined (%d records)", n)
	}

	// A notice signed by an ordinary principal (not a site) is quarantined
	// too — only site-attested bills are trusted.
	keys.Enroll("alice")
	fake2 := folder.NewBriefcase()
	fake2.Ensure(BillingFolder).PushString("victim|ag_tacl|fw|1000|999|fabricated")
	if err := Sign(keys, "alice", fake2, BillingFolder); err != nil {
		t.Fatal(err)
	}
	if err := sys.SiteAt(1).RemoteMeet(ctxb(), "site-0", AgBilling, fake2); err != nil {
		t.Fatal(err)
	}
	if n := home.Cabinet().FolderLen(BillingFolder); n != 0 {
		t.Fatalf("principal-signed notice reached the attested log (%d)", n)
	}
}

// --- guard-aware TacL builtins ---

func TestTaclBuiltins(t *testing.T) {
	sys, keys, _, p1 := newGuardedPair(t)
	keys.Enroll("alice")
	p1.Grant("alice", Capability{Meet: []string{"allowed"}})

	bc, err := SignedScript(keys, "alice", "site-0", `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push OUT [principal]
		bc_push OUT [acl_check allowed]
		bc_push OUT [acl_check forbidden]
		bc_push OUT [ecu_balance]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), sys.SiteAt(0), bc); err != nil {
		t.Fatal(err)
	}
	out := mustFolder(t, bc, "OUT").Strings()
	want := []string{"alice", "1", "0", "0"}
	if len(out) != len(want) {
		t.Fatalf("OUT = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("OUT[%d] = %q, want %q (all: %v)", i, out[i], want[i], out)
		}
	}
}

func TestTaclSignBc(t *testing.T) {
	sys, keys, _, _ := newGuardedPair(t)
	keys.Enroll("alice")

	// An unsigned agent signs itself at the launching site (where the key
	// lives), then roams.
	bc, err := core.RunScript(ctxb(), sys.SiteAt(0), `
		bc_putlist DATA {a b c}
		sign_bc alice DATA
		bc_push OUT [principal]
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := Verify(keys, bc); got != "alice" {
		t.Fatalf("verified principal = %q", got)
	}
	if out := mustFolder(t, bc, "OUT").Strings(); out[0] != "alice" {
		t.Fatalf("principal builtin = %q", out[0])
	}
}

// --- firewall over the real TCP transport with the auth handshake ---

func TestTCPFirewallEndToEnd(t *testing.T) {
	secret := []byte("cluster shared secret")
	epA, err := vnet.NewTCPEndpoint("tcp-a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := vnet.NewTCPEndpoint("tcp-b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA.AddPeer("tcp-b", epB.Addr())
	epB.AddPeer("tcp-a", epA.Addr())
	epA.SetAuthKey(secret)
	epB.SetAuthKey(secret)

	siteA := core.NewSite(epA, core.SiteConfig{})
	siteB := core.NewSite(epB, core.SiteConfig{})
	keys := NewKeyring()
	keys.Enroll("alice")
	pB := NewPolicy()
	pB.SetFirewall(true)
	pB.Grant("alice", Capability{})
	Install(siteA, New(NewPolicy(), keys))
	Install(siteB, New(pB, keys))

	// Signed agent passes both the transport handshake and the firewall.
	bc, err := SignedScript(keys, "alice", "tcp-a", `
		if {[host] eq "tcp-a"} { jump tcp-b }
		bc_push RESULT roamed
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Launch(ctxb(), siteA, bc); err != nil {
		t.Fatal(err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "roamed" {
		t.Fatalf("RESULT = %q", got)
	}

	// Unsigned agent clears the transport (the daemon knows the cluster
	// secret) but is stopped by the site firewall.
	_, err = core.RunScript(ctxb(), siteA, `if {[host] eq "tcp-a"} { jump tcp-b }`, nil)
	if err == nil || !strings.Contains(err.Error(), "unsigned") {
		t.Fatalf("err = %v, want unsigned refusal", err)
	}

	// A whole process with the wrong cluster secret cannot even complete
	// the transport handshake.
	epA.SetAuthKey([]byte("wrong secret"))
	bc2, err := SignedScript(keys, "alice", "tcp-a", `if {[host] eq "tcp-a"} { jump tcp-b }`, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Launch(ctxb(), siteA, bc2)
	if err == nil || !errors.Is(err, vnet.ErrAuth) {
		t.Fatalf("err = %v, want transport auth failure", err)
	}
	siteA.Wait()
	siteB.Wait()
}

func mustFolder(t *testing.T, bc *folder.Briefcase, name string) *folder.Folder {
	t.Helper()
	f, err := bc.Folder(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
