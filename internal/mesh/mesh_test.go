package mesh

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// testProbeInterval is the simulated protocol period: one Tick stands for
// this much simulated time, which is how convergence bounds translate to
// seconds without real-time sleeping.
const testProbeInterval = 100 * time.Millisecond

// fleet is a simulated multi-site deployment with one mesh member per site.
type fleet struct {
	sys    *core.System
	meshes []*Mesh
}

func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	sys := core.NewSystem(n, core.SystemConfig{
		Seed: 42,
		// Short failure detection so probes to crashed sites fail fast in
		// real time; simulated time is counted in Ticks regardless.
		CallTimeout: 5 * time.Millisecond,
	})
	fl := &fleet{sys: sys}
	for i := 0; i < n; i++ {
		c := cfg
		if c.ProbeInterval == 0 {
			c.ProbeInterval = testProbeInterval
		}
		if c.ProbeTimeout == 0 {
			c.ProbeTimeout = 20 * time.Millisecond
		}
		if len(c.Seeds) == 0 && i > 0 {
			c.Seeds = []vnet.SiteID{sys.SiteAt(0).ID()}
		}
		fl.meshes = append(fl.meshes, New(sys.SiteAt(i), c))
	}
	return fl
}

// join joins every non-seed member and fails the test on any seed error.
func (fl *fleet) join(t *testing.T) {
	t.Helper()
	for i, m := range fl.meshes {
		if err := m.Join(context.Background()); err != nil {
			t.Fatalf("mesh %d join: %v", i, err)
		}
	}
}

// tickAll runs one protocol period on every live member.
func (fl *fleet) tickAll() {
	for _, m := range fl.meshes {
		if !fl.sys.Net.Crashed(m.Site().ID()) {
			m.Tick(context.Background())
		}
	}
}

// ticksUntil runs protocol periods until cond holds on every live member,
// returning how many it took; -1 if maxTicks was not enough.
func (fl *fleet) ticksUntil(maxTicks int, cond func(m *Mesh) bool) int {
	for tick := 1; tick <= maxTicks; tick++ {
		fl.tickAll()
		done := true
		for _, m := range fl.meshes {
			if fl.sys.Net.Crashed(m.Site().ID()) {
				continue
			}
			if !cond(m) {
				done = false
				break
			}
		}
		if done {
			return tick
		}
	}
	return -1
}

func aliveCount(m *Mesh) int { return len(m.Alive()) }

func TestMeshJoinConvergence(t *testing.T) {
	const n = 10
	fl := newFleet(t, n, Config{})
	fl.join(t)
	ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n })
	if ticks < 0 {
		for i, m := range fl.meshes {
			t.Logf("mesh %d alive: %v", i, m.Alive())
		}
		t.Fatalf("fleet never converged on %d members", n)
	}
	t.Logf("join convergence: %d ticks (%v simulated)", ticks, time.Duration(ticks)*testProbeInterval)

	// Converged members must agree on placement for every agent name.
	for i := 0; i < 500; i++ {
		agentName := fmt.Sprintf("agent-%d", i)
		want, ok := fl.meshes[0].Resolve(agentName)
		if !ok {
			t.Fatalf("no owner for %q", agentName)
		}
		for j, m := range fl.meshes[1:] {
			if got, _ := m.Resolve(agentName); got != want {
				t.Fatalf("mesh %d resolves %q to %q, mesh 0 to %q", j+1, agentName, got, want)
			}
		}
	}
}

// The acceptance bound: kill -9 one site; every survivor must detect the
// death, converge on the surviving membership, and agree on a consistent
// ring — every agent resolving to exactly one live site — within 2 seconds
// of simulated time.
func TestMeshKillConvergence(t *testing.T) {
	const n = 10
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}

	victim := fl.sys.SiteAt(3).ID()
	if err := fl.sys.Net.Crash(victim); err != nil {
		t.Fatal(err)
	}
	ticks := fl.ticksUntil(40, func(m *Mesh) bool {
		for _, id := range m.Alive() {
			if id == victim {
				return false
			}
		}
		return aliveCount(m) == n-1
	})
	if ticks < 0 {
		t.Fatalf("survivors never converged after killing %s", victim)
	}
	simulated := time.Duration(ticks) * testProbeInterval
	t.Logf("kill convergence: %d ticks (%v simulated)", ticks, simulated)
	if simulated >= 2*time.Second {
		t.Fatalf("convergence took %v simulated, want < 2s", simulated)
	}

	// Ring consistency after the kill: every agent name resolves to exactly
	// one owner, the same at every survivor, and never the dead site.
	for i := 0; i < 1000; i++ {
		agentName := fmt.Sprintf("agent-%d", i)
		owners := map[vnet.SiteID]bool{}
		for _, m := range fl.meshes {
			if fl.sys.Net.Crashed(m.Site().ID()) {
				continue
			}
			owner, ok := m.Resolve(agentName)
			if !ok {
				t.Fatalf("no owner for %q after kill", agentName)
			}
			owners[owner] = true
		}
		if len(owners) != 1 {
			t.Fatalf("%q resolves to %d owners after kill: %v", agentName, len(owners), owners)
		}
		for owner := range owners {
			if owner == victim {
				t.Fatalf("%q still resolves to the dead site", agentName)
			}
		}
	}
}

// A restarted site must rejoin: survivors hold it dead at its old
// incarnation, so its first gossip triggers SWIM refutation (incarnation
// bump) and resurrects it everywhere.
func TestMeshRestartRejoin(t *testing.T) {
	const n = 5
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	victim := fl.sys.SiteAt(2).ID()
	if err := fl.sys.Net.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if ticks := fl.ticksUntil(40, func(m *Mesh) bool { return aliveCount(m) == n-1 }); ticks < 0 {
		t.Fatal("death never converged")
	}
	if err := fl.sys.Net.Restart(victim); err != nil {
		t.Fatal(err)
	}
	ticks := fl.ticksUntil(40, func(m *Mesh) bool { return aliveCount(m) == n })
	if ticks < 0 {
		for i, m := range fl.meshes {
			t.Logf("mesh %d: %+v", i, m.Members())
		}
		t.Fatal("restarted site never rejoined")
	}
	t.Logf("rejoin convergence: %d ticks", ticks)
}

// A graceful Leave must remove the member without waiting out a suspicion
// timeout, and Left must be final: late alive-gossip at the old incarnation
// cannot resurrect a departed member.
func TestMeshLeave(t *testing.T) {
	const n = 5
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	leaver := fl.meshes[4]
	leaver.Leave(context.Background())
	ticks := fl.ticksUntil(20, func(m *Mesh) bool {
		if m == leaver {
			return true
		}
		return aliveCount(m) == n-1
	})
	if ticks < 0 {
		t.Fatal("leave never converged")
	}
	for _, m := range fl.meshes[:4] {
		for _, e := range m.Members() {
			if e.Site == leaver.Site().ID() && e.State != StateLeft {
				t.Fatalf("mesh %s holds leaver as %s, want left", m.Site().ID(), e.State)
			}
		}
	}
}

// The self entry must survive tombstone retention: a mesh that has Left but
// keeps ticking (tacomad calls Leave while the ticker is live) or keeps
// answering frames must not evict itself — Tick and frame building
// dereference the self entry unconditionally.
func TestMeshLeaveThenTickNoSelfEviction(t *testing.T) {
	const retention = 8
	fl := newFleet(t, 2, Config{DeadRetentionTicks: retention})
	fl.join(t)
	if ticks := fl.ticksUntil(8, func(m *Mesh) bool { return aliveCount(m) == 2 }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	m := fl.meshes[0]
	// Age the mesh past the retention window, then leave mid-life.
	for i := 0; i < retention+2; i++ {
		fl.tickAll()
	}
	m.Leave(context.Background())
	// Keep ticking well past retention: before the fix the self entry was
	// deleted on the first expiry pass after Leave and the next Tick
	// panicked on a nil member.
	for i := 0; i < 2*retention; i++ {
		m.Tick(context.Background())
	}
	found := false
	for _, e := range m.Members() {
		if e.Site == m.Site().ID() {
			found = true
			if e.State != StateLeft {
				t.Fatalf("self state after Leave = %s, want left", e.State)
			}
		}
	}
	if !found {
		t.Fatal("self entry evicted after Leave + retention ticks")
	}
	// Incoming gossip frames must still be answerable (buildFrameLocked
	// reads the self entry too).
	ping := AppendFrame(nil, &Frame{Type: TypePing})
	if _, err := m.handle(fl.meshes[1].Site().ID(), KindGossip, ping); err != nil {
		t.Fatalf("ping after Leave: %v", err)
	}
}

// When more updates are pending than fit in one frame, the least-transmitted
// ones go out first — the queue front must not monopolize the piggyback
// window while fresher churn starves behind it.
func TestMeshPiggybackFewestTransmissionsFirst(t *testing.T) {
	sys := core.NewSystem(1, core.SystemConfig{})
	m := New(sys.SiteAt(0), Config{PiggybackMax: 2})
	m.mu.Lock()
	m.queue = []update{
		{e: Entry{Site: "old-a", State: StateAlive}, left: 1},
		{e: Entry{Site: "old-b", State: StateAlive}, left: 1},
		{e: Entry{Site: "new-c", State: StateDead, Inc: 1}, left: 5},
		{e: Entry{Site: "new-d", State: StateSuspect}, left: 5},
	}
	f := m.buildFrameLocked(TypePing, "")
	m.mu.Unlock()
	got := map[vnet.SiteID]bool{}
	for _, e := range f.Entries[1:] { // entry 0 is self
		got[e.Site] = true
	}
	if !got["new-c"] || !got["new-d"] {
		t.Fatalf("frame carried %v, want the least-transmitted updates new-c and new-d", got)
	}
}

// One partitioned link must not produce a failure verdict: the indirect
// probe path keeps a member alive as long as anyone can reach it.
func TestMeshIndirectProbeSurvivesPartition(t *testing.T) {
	const n = 4
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	fl.sys.Net.Partition(fl.sys.SiteAt(0).ID(), fl.sys.SiteAt(1).ID())
	for i := 0; i < 20; i++ {
		fl.tickAll()
	}
	for i, m := range fl.meshes {
		if got := aliveCount(m); got != n {
			t.Fatalf("mesh %d shrank to %d members under a single cut link: %v", i, got, m.Members())
		}
	}
}

// recordingSink captures the load stream for assertions.
type recordingSink struct {
	mu         sync.Mutex
	registered map[string]bool
	loads      map[string]int64
	seqs       map[string]int64
	dropped    map[string]bool
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		registered: map[string]bool{},
		loads:      map[string]int64{},
		seqs:       map[string]int64{},
		dropped:    map[string]bool{},
	}
}

func (r *recordingSink) Register(service, site, agent string, capacity int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registered[site] = true
	delete(r.dropped, site)
}

func (r *recordingSink) Report(site string, load, seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq < r.seqs[site] {
		panic(fmt.Sprintf("mesh fed stale load report for %s: seq %d after %d", site, seq, r.seqs[site]))
	}
	r.seqs[site] = seq
	r.loads[site] = load
}

func (r *recordingSink) Drop(site string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped[site] = true
}

func TestMeshFeedLoads(t *testing.T) {
	const n = 6
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	sink := newRecordingSink()
	fl.meshes[0].FeedLoads(sink, "tacl", "ag_tacl", 8)
	sink.mu.Lock()
	regs := len(sink.registered)
	sink.mu.Unlock()
	if regs != n {
		t.Fatalf("FeedLoads registered %d sites, want %d", regs, n)
	}
	for i := 0; i < 10; i++ {
		fl.tickAll()
	}
	victim := fl.sys.SiteAt(5).ID()
	if err := fl.sys.Net.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if ticks := fl.ticksUntil(40, func(m *Mesh) bool { return aliveCount(m) == n-1 }); ticks < 0 {
		t.Fatal("death never converged")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !sink.dropped[string(victim)] {
		t.Fatalf("sink never saw Drop(%s); dropped=%v", victim, sink.dropped)
	}
	if sink.seqs[string(fl.sys.SiteAt(1).ID())] == 0 {
		t.Fatal("no gossiped load reports reached the sink")
	}
}

// The stale-report pin at the mesh layer: a load report with an older
// LoadSeq must never overwrite a fresher one, whatever gossip path it rode.
func TestMeshStaleLoadReportIgnored(t *testing.T) {
	sys := core.NewSystem(1, core.SystemConfig{})
	m := New(sys.SiteAt(0), Config{})
	m.mergeEntries([]Entry{{Site: "peer", State: StateAlive, LoadSeq: 10, Load: 7, Agents: 3}})
	m.mergeEntries([]Entry{{Site: "peer", State: StateAlive, LoadSeq: 4, Load: 99, Agents: 99}})
	for _, e := range m.Members() {
		if e.Site == "peer" && (e.Load != 7 || e.LoadSeq != 10) {
			t.Fatalf("stale report overwrote fresh one: %+v", e)
		}
	}
}

// Gossip overhead must stay bounded: PiggybackMax caps entries per frame,
// so steady-state per-tick traffic is O(members probed), not O(fleet²).
func TestMeshGossipBytesBounded(t *testing.T) {
	const n = 10
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	fl.sys.Net.ResetStats()
	const rounds = 20
	for i := 0; i < rounds; i++ {
		fl.tickAll()
	}
	bytes := fl.sys.Net.KindBytes(KindGossip)
	perSitePerTick := bytes / (n * rounds)
	t.Logf("steady-state gossip: %d bytes total, %d bytes/site/tick", bytes, perSitePerTick)
	// One ping + ack with a PiggybackMax window is a few hundred bytes; 4KiB
	// per site per protocol period is an order-of-magnitude ceiling.
	if perSitePerTick > 4096 {
		t.Fatalf("gossip overhead %d bytes/site/tick exceeds bound", perSitePerTick)
	}
}

// End-to-end placement: a meet issued at the wrong site must reach the
// ring owner in exactly one forwarded hop, and a miss at the owner must
// not bounce again.
func TestMeshForwardedMeetOneHop(t *testing.T) {
	const n = 4
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}

	const agentName = "ag_whereami"
	owner, ok := fl.meshes[0].Resolve(agentName)
	if !ok {
		t.Fatal("no owner")
	}
	// Register the agent only at its ring owner, as the placement layer
	// would; it records where it actually ran.
	fl.sys.Site(owner).Register(agentName, core.AgentFunc(
		func(mc *core.MeetContext, bc *folder.Briefcase) error {
			bc.PutString("RAN_AT", string(mc.Site.ID()))
			return nil
		}))

	// Find a site that is not the owner and meet there.
	var wrong *core.Site
	for i := 0; i < n; i++ {
		if fl.sys.SiteAt(i).ID() != owner {
			wrong = fl.sys.SiteAt(i)
			break
		}
	}
	bc := folder.NewBriefcase()
	if err := wrong.Meet(nil, agentName, bc); err != nil {
		t.Fatalf("forwarded meet failed: %v", err)
	}
	ranAt, err := bc.GetString("RAN_AT")
	if err != nil || ranAt != string(owner) {
		t.Fatalf("meet ran at %q (err %v), want owner %q", ranAt, err, owner)
	}
	if bc.Has(core.FwdFolder) {
		t.Fatal("forward marker leaked into the result briefcase")
	}

	// An agent registered nowhere: the wrong site forwards once, the owner
	// misses, and the forward marker stops a second hop — the error is
	// ErrNoAgent, not a loop or a depth blowout.
	if err := wrong.Meet(nil, "ag_nowhere", folder.NewBriefcase()); !errors.Is(err, core.ErrNoAgent) {
		t.Fatalf("meet of unplaced agent: %v, want ErrNoAgent", err)
	}
}

// A meet addressed to a *parked* agent from the wrong site forwards one
// hop to the ring owner and is delivered there: briefcase deposited in the
// pending folder, resume enqueued on the owner's scheduler — the sender
// never blocks on the parked agent actually running.
func TestMeshForwardedMeetToParkedAgent(t *testing.T) {
	const n = 4
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}

	const agentName = "ag_resident"
	ownerID, ok := fl.meshes[0].Resolve(agentName)
	if !ok {
		t.Fatal("no owner")
	}
	owner := fl.sys.Site(ownerID)
	// Park the resident at its ring owner, where forwarded meets land.
	script := `
		if {![bc_has PARK_HOP]} {
			park ag_resident
		}
		cab_append RESUMED [bc_get PARK_HOP 0]
	`
	if _, err := core.RunScript(context.Background(), owner, script, nil); err != nil {
		t.Fatal(err)
	}
	if !owner.IsParked(agentName) {
		t.Fatal("resident not parked at owner")
	}

	var wrong *core.Site
	for i := 0; i < n; i++ {
		if fl.sys.SiteAt(i).ID() != ownerID {
			wrong = fl.sys.SiteAt(i)
			break
		}
	}
	if err := wrong.Meet(nil, agentName, folder.NewBriefcase()); err != nil {
		t.Fatalf("forwarded meet to parked agent failed: %v", err)
	}
	fl.sys.Wait() // the enqueued resume is tracked scheduler work
	resumed := owner.Cabinet().Snapshot("RESUMED").Strings()
	if len(resumed) != 1 {
		t.Fatalf("RESUMED = %v, want one wakeup at the owner", resumed)
	}
	if owner.IsParked(agentName) {
		t.Fatal("resident still parked after its script completed")
	}
	if owner.Cabinet().FolderLen(core.ParkedFolder(agentName)) != 0 {
		t.Fatal("spent continuation not retired from the cabinet")
	}
}

// TestMeshFleetGoroutinesFlat is the fleet-scale goroutine invariant CI
// checks: parking a large resident population across a formed mesh must
// not grow the process goroutine count — parked agents are heap state, not
// goroutines, no matter how many sites host them.
func TestMeshFleetGoroutinesFlat(t *testing.T) {
	const n = 4
	residents := 20000
	if testing.Short() {
		residents = 1000
	}
	fl := newFleet(t, n, Config{})
	fl.join(t)
	if ticks := fl.ticksUntil(4*n, func(m *Mesh) bool { return aliveCount(m) == n }); ticks < 0 {
		t.Fatal("fleet never formed")
	}
	fl.sys.Wait()
	before := runtime.NumGoroutine()
	bc := folder.NewBriefcase()
	bc.PutString(folder.CodeFolder, "cab_append WOKE x")
	for i := 0; i < residents; i++ {
		name := fmt.Sprintf("resident-%d", i)
		owner, ok := fl.meshes[0].Resolve(name)
		if !ok {
			t.Fatal("no owner")
		}
		if err := fl.sys.Site(owner).Park(name, "", bc); err != nil {
			t.Fatal(err)
		}
	}
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("parking %d residents across %d sites grew goroutines %d -> %d",
			residents, n, before, after)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += fl.sys.SiteAt(i).ParkedCount()
	}
	if total != residents {
		t.Fatalf("fleet parked %d residents, want %d", total, residents)
	}
}

// Start/Stop drive Ticks in real time without racing explicit ones.
func TestMeshStartStop(t *testing.T) {
	fl := newFleet(t, 3, Config{ProbeInterval: 2 * time.Millisecond})
	fl.join(t)
	for _, m := range fl.meshes {
		m.Start()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		done := true
		for _, m := range fl.meshes {
			if aliveCount(m) != 3 {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("real-time ticking never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, m := range fl.meshes {
		m.Stop()
		m.Stop() // idempotent
	}
}
