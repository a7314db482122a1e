package experiments

import (
	"context"
	"errors"
	"strings"

	"repro/internal/cash"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
)

// E11: "There are two aspects of the security problem: ensuring that
// TACOMA system installations are not endangered by imported agents, and
// protecting agents from hostile TACOMA installations. … One intriguing
// direction … is to structure systems so that agents pay for the resources
// they use. Electronic cash would limit the impact of an agent, because
// computation and communication on behalf of that agent cease when its
// funds are exhausted." (§3)
//
// The experiment drives four hostile-workload scenarios against a firewall
// site: an unsigned agent, an agent signed with an unknown key, a signed
// agent overstepping its capability ACL, and a signed, funded agent that
// burns cycles until its electronic-cash budget runs out and is terminated
// mid-itinerary — with the bill landing back at the launching site.

// E11Row is one security-experiment measurement.
type E11Row struct {
	UnsignedRejected  bool  // firewall refused the unsigned briefcase
	ForgedRejected    bool  // firewall refused the unknown-key signature
	ACLBlocked        bool  // capability ACL refused a forbidden meet
	HonestCompleted   bool  // a signed, funded, well-behaved agent ran fine
	RunawayTerminated bool  // the runaway agent was killed mid-itinerary
	RunawayBudget     int64 // ECUs the runaway carried
	SiteEarned        int64 // ECUs collected by the firewall site's meter
	BillingAtHome     int   // billing records visible at the launching site
	HonestSpent       int64 // ECUs the honest agent was charged
	HonestRemaining   int64 // ECUs the honest agent brought home
	MoneySupplyIntact bool  // every minted ECU is accounted for
}

// E11Security runs the hostile-agent experiment on a 3-site system where
// site-1 is a firewall with metered meets. The launching site is site-0.
func E11Security(ctx context.Context, budget int64, stepsPerUnit int, seed int64) (E11Row, error) {
	sys := core.NewSystem(3, core.SystemConfig{Seed: seed})
	defer sys.Wait()
	launch, fw := sys.SiteAt(0), sys.SiteAt(1)

	keys := guard.NewKeyring()
	keys.Enroll("alice")
	keys.Enroll("eve")
	keys.Enroll(guard.SitePrincipal(fw.ID()))

	// The launching site is guarded but open; the firewall site demands
	// signatures and meters cycles.
	guard.Install(launch, guard.New(nil, keys))
	fwPolicy := guard.NewPolicy()
	fwPolicy.SetFirewall(true)
	fwPolicy.Grant("alice", guard.Capability{Meet: []string{"appraiser"}})
	fwPolicy.Grant("eve", guard.Capability{Meet: []string{}}) // may run, may meet nothing
	mint := cash.NewMint()
	meter := guard.NewMeter(stepsPerUnit, 1)
	meter.Mint = mint // the meter validates every bill it collects
	fwGuard := guard.New(fwPolicy, keys)
	fwGuard.Meter = meter
	guard.Install(fw, fwGuard)

	fw.Register("appraiser", core.AgentFunc(
		func(_ *core.MeetContext, bc *folder.Briefcase) error {
			bc.PutString(folder.ResultFolder, "appraised")
			return nil
		}))

	row := E11Row{RunawayBudget: budget}
	fund := func(bc *folder.Briefcase, units int64) error {
		amounts := make([]int64, units)
		for i := range amounts {
			amounts[i] = 1
		}
		bills, err := mint.IssueMany(amounts...)
		if err != nil {
			return err
		}
		bc.Put(guard.CashFolder, folder.OfStrings(cash.FormatECUs(bills)...))
		return nil
	}
	hop := `if {[host] eq "site-0"} { jump site-1 }` + "\n"

	// Scenario 1: unsigned briefcase.
	_, err := core.RunScript(ctx, launch, hop+`meet appraiser`, nil)
	row.UnsignedRejected = errors.Is(err, core.ErrRefused) && strings.Contains(err.Error(), "unsigned")

	// Scenario 2: signature under a key the firewall has never enrolled.
	mallory := guard.NewKeyring()
	mallory.Enroll("mallory")
	bc, err := guard.SignedScript(mallory, "mallory", string(launch.ID()), hop+`meet appraiser`, nil)
	if err != nil {
		return row, err
	}
	err = guard.Launch(ctx, launch, bc)
	row.ForgedRejected = err != nil && strings.Contains(err.Error(), "unknown principal")

	// Scenario 3: eve is admitted but her capability allows no meets.
	bc, err = guard.SignedScript(keys, "eve", string(launch.ID()), hop+`meet appraiser`, nil)
	if err != nil {
		return row, err
	}
	err = guard.Launch(ctx, launch, bc)
	row.ACLBlocked = err != nil && strings.Contains(err.Error(), "may not meet")

	// Scenario 4: alice behaves, pays her way, and comes home with change
	// (the briefcase folds back to the launcher when the meet terminates).
	bc, err = guard.SignedScript(keys, "alice", string(launch.ID()), hop+`
		meet appraiser
	`, nil)
	if err != nil {
		return row, err
	}
	if err := fund(bc, budget); err != nil {
		return row, err
	}
	if err := guard.Launch(ctx, launch, bc); err == nil {
		row.HonestCompleted = true
		f, _ := bc.Folder(guard.CashFolder)
		row.HonestRemaining = cash.FolderBalance(f)
		row.HonestSpent = budget - row.HonestRemaining
	}
	earnedBefore := meter.Earned()

	// Scenario 5: the runaway — funded, signed, and hostile: it burns
	// cycles in an infinite loop until its budget is gone.
	bc, err = guard.SignedScript(keys, "alice", string(launch.ID()), hop+`
		while {1} { set x 1 }
	`, nil)
	if err != nil {
		return row, err
	}
	if err := fund(bc, budget); err != nil {
		return row, err
	}
	err = guard.Launch(ctx, launch, bc)
	row.RunawayTerminated = err != nil && strings.Contains(err.Error(), "terminated")
	sys.Wait() // let the detached billing notice reach home

	row.SiteEarned = meter.Earned() - earnedBefore
	row.BillingAtHome = launch.Cabinet().FolderLen(guard.BillingFolder)

	// Conservation: minted value = site earnings + what agents kept.
	total := meter.Earned() + row.HonestRemaining
	row.MoneySupplyIntact = total == mint.Issued()
	return row, nil
}
