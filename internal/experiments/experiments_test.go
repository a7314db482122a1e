package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
)

// skipIfShort guards the timing-based experiments (the E8 survival runs
// take ~20s of real sleeping) so `go test -short ./...` stays fast; CI runs
// the full suite.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow timing-based experiment; run without -short")
	}
}

func TestE1AgentWinsAtLargeRecords(t *testing.T) {
	row, err := E1Bandwidth(context.Background(), 4, 40, 2048, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 sites x 40 records of 2048 B, 5%% match: %+v, client/agent %.2fx", row, row.Ratio())
	if row.Ratio() < 2 {
		t.Fatalf("ratio = %.2f (agent %d vs client %d), want >= 2",
			row.Ratio(), row.AgentBytes, row.ClientBytes)
	}
	if row.Matches == 0 {
		t.Fatal("no matches found")
	}
}

func TestE1ClientWinsAtTinyRecords(t *testing.T) {
	// With tiny records the agent's code+itinerary overhead dominates:
	// the crossover is real and must be visible.
	row, err := E1Bandwidth(context.Background(), 4, 3, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 sites x 3 records of 16 B, 50%% match: %+v, client/agent %.2fx", row, row.Ratio())
	if row.Ratio() > 1 {
		t.Fatalf("expected client-server to win at tiny records, ratio=%.2f", row.Ratio())
	}
}

func TestE2NaiveGrowsMarkingDoesNot(t *testing.T) {
	ctx := context.Background()
	naive4, err := E2Flood(ctx, "naive", "ring", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	naive6, err := E2Flood(ctx, "naive", "ring", 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if naive6.Activations < naive4.Activations*3 {
		t.Fatalf("naive flood not growing: ttl4=%d ttl6=%d", naive4.Activations, naive6.Activations)
	}
	marking, err := E2Flood(ctx, "marking", "ring", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if marking.Delivered != 8 || marking.Duplicates != 0 {
		t.Fatalf("marking flood: %+v", marking)
	}
	if marking.Activations >= naive6.Activations {
		t.Fatalf("marking (%d) should use far fewer activations than naive (%d)",
			marking.Activations, naive6.Activations)
	}
	diffusion, err := E2Flood(ctx, "diffusion", "ring", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring of 8:\n naive ttl 4 %+v\n naive ttl 6 %+v\n marking     %+v\n diffusion   %+v",
		naive4, naive6, marking, diffusion)
	if diffusion.Delivered != 8 || diffusion.Duplicates != 0 {
		t.Fatalf("diffusion: %+v", diffusion)
	}
}

func TestE2BriefcaseAblation(t *testing.T) {
	// Carrying the visited set in the briefcase terminates but moves more
	// bytes than site-local marking.
	ctx := context.Background()
	briefcase, err := E2Flood(ctx, "briefcase", "ring", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	marking, err := E2Flood(ctx, "marking", "ring", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring of 8:\n briefcase %+v\n marking   %+v", briefcase, marking)
	if briefcase.Delivered != 8 {
		t.Fatalf("briefcase variant delivered %d", briefcase.Delivered)
	}
	if briefcase.Bytes <= marking.Bytes {
		t.Fatalf("briefcase (%d bytes) should move more than marking (%d bytes)",
			briefcase.Bytes, marking.Bytes)
	}
}

func TestE2UnknownInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := E2Flood(ctx, "bogus", "ring", 4, 0); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := E2Flood(ctx, "marking", "bogus", 4, 0); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if _, err := E2Flood(ctx, "marking", "grid", 7, 0); err == nil {
		t.Fatal("non-square grid accepted")
	}
}

// E3: folders are cheap to move and cabinets are fast to access.
func TestE3FolderMoveAndCabinetAccess(t *testing.T) {
	for _, size := range []int{64, 1024, 65536} {
		var elems [][]byte
		for i := 0; i < 4; i++ {
			elems = append(elems, bytes.Repeat([]byte{byte('a' + i)}, size))
		}
		f := folder.Of(elems...)
		back, err := folder.DecodeFolder(folder.EncodeFolder(f))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !back.Equal(f) {
			t.Fatalf("size %d: folder changed in a round trip", size)
		}
	}

	cab := folder.NewCabinet()
	for i := 0; i < 10000; i++ {
		cab.AppendString("BIG", fmt.Sprintf("element-%d", i))
	}
	if !cab.ContainsString("BIG", "element-9999") {
		t.Fatal("cabinet lookup missed the last of 10k elements")
	}
	if !cab.TestAndAppendString("V", "s0") {
		t.Fatal("first TestAndAppend refused")
	}
	if cab.TestAndAppendString("V", "s0") {
		t.Fatal("TestAndAppend accepted a duplicate")
	}
	if n := cab.FolderLen("V"); n != 1 {
		t.Fatalf("V holds %d elements, want 1", n)
	}
}

// E4: meet suffices as the sole IPC primitive. Every kind of interaction
// is one meet by the client, and each one succeeds.
func TestE4EveryInteractionIsOneMeet(t *testing.T) {
	ctx := context.Background()
	where := core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		bc.Ensure("AT").PushString(string(mc.Site.ID()))
		return nil
	})
	at := func(bc *folder.Briefcase) []string {
		f, err := bc.Folder("AT")
		if err != nil {
			return nil
		}
		return f.Strings()
	}
	sys := core.NewSystem(3, core.SystemConfig{Seed: 4})
	defer sys.Wait()
	sys.Register("where", func(*core.Site) core.Agent { return where })
	a := sys.SiteAt(0)

	bc := folder.NewBriefcase()
	if err := a.MeetClient(ctx, "where", bc); err != nil {
		t.Fatalf("local meet: %v", err)
	}
	if got := at(bc); len(got) != 1 || got[0] != "site-0" {
		t.Fatalf("local meet ran at %v", got)
	}

	bc = folder.NewBriefcase()
	if err := a.RemoteMeet(ctx, "site-1", "where", bc); err != nil {
		t.Fatalf("remote meet: %v", err)
	}
	if got := at(bc); len(got) != 1 || got[0] != "site-1" {
		t.Fatalf("remote meet ran at %v", got)
	}

	bc = folder.NewBriefcase()
	bc.PutString(folder.HostFolder, "site-1")
	bc.PutString(folder.ContactFolder, "where")
	if err := a.MeetClient(ctx, core.AgRexec, bc); err != nil {
		t.Fatalf("ag_rexec hop: %v", err)
	}
	if got := at(bc); len(got) != 1 || got[0] != "site-1" {
		t.Fatalf("ag_rexec hop ran its contact at %v", got)
	}

	bc, err := core.RunScript(ctx, a, `bc_push RESULT [expr {1 + 1}]`, nil)
	if err != nil {
		t.Fatalf("TacL activation: %v", err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "2" {
		t.Fatalf("TacL activation RESULT = %q", got)
	}

	bc, err = core.RunScript(ctx, a, `
		if {[host] eq "site-0"} { jump site-1 }
		bc_push RESULT [host]
	`, nil)
	if err != nil {
		t.Fatalf("jump: %v", err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "site-1" {
		t.Fatalf("jump ended at %q", got)
	}

	ring := core.NewSystem(8, core.SystemConfig{Seed: 4})
	defer ring.Wait()
	ring.Ring()
	ring.Register("mark", func(*core.Site) core.Agent {
		return core.AgentFunc(func(mc *core.MeetContext, _ *folder.Briefcase) error {
			mc.Site.Cabinet().AppendString("VISITS", "diffusion")
			return nil
		})
	})
	bc = folder.NewBriefcase()
	bc.PutString(folder.ContactFolder, "mark")
	if err := ring.SiteAt(0).MeetClient(ctx, core.AgDiffusion, bc); err != nil {
		t.Fatalf("ag_diffusion: %v", err)
	}
	ring.Wait()
	if f, err := bc.Folder(folder.ErrorFolder); err == nil && f.Len() > 0 {
		t.Fatalf("ag_diffusion recorded errors: %v", f.Strings())
	}
	for i := 0; i < ring.Len(); i++ {
		if n := ring.SiteAt(i).Cabinet().FolderLen("VISITS"); n != 1 {
			t.Fatalf("ag_diffusion visited %s %d times, want 1", ring.SiteAt(i).ID(), n)
		}
	}
}

func TestE5ValidatorStopsAllDoubleSpends(t *testing.T) {
	row, err := E5DoubleSpend(context.Background(), 300, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("300 transfers, replay rate 0.3: %+v", row)
	if row.WithValidator != 0 {
		t.Fatalf("validator accepted %d double spends", row.WithValidator)
	}
	if row.Naive == 0 {
		t.Fatal("naive acceptance saw no double spends — adversary broken")
	}
	if row.FraudsCaught == 0 {
		t.Fatal("no frauds recorded at the mint")
	}
}

func TestE6AuditAlwaysCorrect(t *testing.T) {
	rows, err := E6AuditMatrix(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("verdicts: %+v", rows)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Correct != row.Runs {
			t.Fatalf("%s: %d/%d correct", row.Behavior, row.Correct, row.Runs)
		}
	}
}

func TestE7BrokerBeatsRandom(t *testing.T) {
	caps := []int64{8, 4, 2, 1, 1}
	brokerRow, err := E7Placement("broker", 400, caps, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	randomRow, err := E7Placement("random", 400, caps, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	rrRow, err := E7Placement("round-robin", 400, caps, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("400 jobs on capacities %v: broker %+v, random %+v, round-robin %+v", caps, brokerRow, randomRow, rrRow)
	if brokerRow.Imbalance >= randomRow.Imbalance {
		t.Fatalf("broker %.2f not better than random %.2f", brokerRow.Imbalance, randomRow.Imbalance)
	}
	if brokerRow.Imbalance >= rrRow.Imbalance {
		t.Fatalf("broker %.2f not better than round-robin %.2f", brokerRow.Imbalance, rrRow.Imbalance)
	}
}

func TestE7StalenessDegrades(t *testing.T) {
	caps := []int64{8, 4, 2, 1, 1}
	fresh, err := E7Placement("broker", 400, caps, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := E7Placement("broker", 400, caps, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("broker, reports every 1 placement %+v, every 400 %+v", fresh, stale)
	if stale.Imbalance < fresh.Imbalance {
		t.Fatalf("staleness improved placement? fresh=%.2f stale=%.2f",
			fresh.Imbalance, stale.Imbalance)
	}
}

func TestE7UnknownPolicy(t *testing.T) {
	if _, err := E7Placement("bogus", 10, []int64{1}, 0, 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestE8GuardsImproveSurvival(t *testing.T) {
	skipIfShort(t)
	ctx := context.Background()
	guarded, err := E8Survival(ctx, 10, 4, 1.0, true, 21)
	if err != nil {
		t.Fatal(err)
	}
	unguarded, err := E8Survival(ctx, 10, 4, 1.0, false, 21)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 hops, crash every trial: guarded %+v, unguarded %+v", guarded, unguarded)
	if guarded.Completed <= unguarded.Completed {
		t.Fatalf("guards did not help: guarded %d/%d vs unguarded %d/%d",
			guarded.Completed, guarded.Trials, unguarded.Completed, unguarded.Trials)
	}
	if guarded.Completed < 9 {
		t.Fatalf("guarded completion too low: %d/10", guarded.Completed)
	}
}

func TestE8IntervalAblation(t *testing.T) {
	skipIfShort(t)
	rows, err := E8IntervalAblation(context.Background(), 3, 4,
		[]time.Duration{5 * time.Millisecond, 40 * time.Millisecond}, 31)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("guard interval vs recovery: %+v", rows)
	for _, row := range rows {
		if row.Completed != row.Trials {
			t.Fatalf("interval %v: %d/%d completed", row.Interval, row.Completed, row.Trials)
		}
	}
	// Slower detection must mean slower recovery.
	if rows[1].MeanTime < rows[0].MeanTime {
		t.Fatalf("recovery faster with slower detection? %v vs %v",
			rows[0].MeanTime, rows[1].MeanTime)
	}
}

func TestE9WindowCrossover(t *testing.T) {
	ctx := context.Background()
	small, err := E9StormCast(ctx, 3, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	large, err := E9StormCast(ctx, 3, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("3x3 grid: window 5 %+v, window 120 %+v", small, large)
	if !small.Agree || !large.Agree {
		t.Fatal("strategies disagree on the forecast")
	}
	// Agent bytes are roughly flat; pull bytes grow with the window.
	if large.AgentBytes >= large.PullBytes {
		t.Fatalf("large window: agent %d >= pull %d", large.AgentBytes, large.PullBytes)
	}
	if large.PullBytes < small.PullBytes*5 {
		t.Fatalf("pull bytes did not scale with window: %d vs %d", large.PullBytes, small.PullBytes)
	}
}

func TestE10MailDeliversAll(t *testing.T) {
	row, err := E10Mail(context.Background(), 4, 24, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Delivered != 24 {
		t.Fatalf("delivered %d/24", row.Delivered)
	}
	withReceipts, err := E10Mail(context.Background(), 4, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 users: 24 messages %+v, 12 with receipts %+v", row, withReceipts)
	if withReceipts.Delivered != 12 {
		t.Fatalf("delivered %d/12 with receipts", withReceipts.Delivered)
	}
}

// The hostile-agent scenario: every attack in E11 must be stopped, the
// honest agent must complete, and the runaway's bill must land at home.
func TestE11HostileAgentsContained(t *testing.T) {
	row, err := E11Security(context.Background(), 10, 25, 17)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("budget 10: %+v", row)
	if !row.UnsignedRejected {
		t.Error("unsigned briefcase was not rejected by the firewall")
	}
	if !row.ForgedRejected {
		t.Error("unknown-key signature was not rejected")
	}
	if !row.ACLBlocked {
		t.Error("capability ACL did not block the forbidden meet")
	}
	if !row.HonestCompleted {
		t.Error("honest funded agent failed to complete")
	}
	if !row.RunawayTerminated {
		t.Error("runaway agent was not terminated")
	}
	if row.SiteEarned != row.RunawayBudget {
		t.Errorf("firewall earned %d from the runaway, want its whole budget %d",
			row.SiteEarned, row.RunawayBudget)
	}
	if row.BillingAtHome == 0 {
		t.Error("no billing record visible at the launching site")
	}
	if !row.MoneySupplyIntact {
		t.Error("minted ECUs not conserved across the experiment")
	}
}

func TestE11HonestAgentKeepsChange(t *testing.T) {
	row, err := E11Security(context.Background(), 50, 25, 23)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("budget 50: %+v", row)
	if !row.HonestCompleted {
		t.Fatal("honest agent failed")
	}
	if row.HonestSpent <= 0 || row.HonestSpent >= 50 {
		t.Fatalf("honest agent spent %d of 50; want a small positive charge", row.HonestSpent)
	}
	if row.HonestRemaining != 50-row.HonestSpent {
		t.Fatalf("remaining %d + spent %d != 50", row.HonestRemaining, row.HonestSpent)
	}
}
