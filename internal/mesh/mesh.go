package mesh

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/vnet"
)

// Config tunes a mesh member. The zero value gets usable defaults: with
// them, a killed site is detected, declared dead, and disseminated fleet-wide
// in well under 2 simulated seconds for fleets up to ~100 sites.
type Config struct {
	// Seeds are sites to contact on Join. A seed is only a bootstrap
	// contact — once joined, membership maintains itself by gossip and any
	// member can seed the next joiner.
	Seeds []vnet.SiteID
	// ProbeInterval is the protocol period: one Tick per interval when the
	// mesh is Started. Convergence times scale with it.
	ProbeInterval time.Duration // default 200ms
	// ProbeTimeout bounds each direct or indirect probe RPC.
	ProbeTimeout time.Duration // default 100ms
	// SuspectTicks is how many protocol periods a suspect gets to refute
	// before it is declared dead.
	SuspectTicks int // default 3
	// IndirectProbes is how many members relay a probe when the direct
	// ping fails (SWIM's k).
	IndirectProbes int // default 2
	// PiggybackMax caps membership entries per frame — the bounded-fanout
	// knob: gossip bytes per period are O(PiggybackMax), independent of
	// how much churn is pending.
	PiggybackMax int // default 16
	// RetransmitMult scales per-update retransmissions: each local update
	// is piggybacked on RetransmitMult×log2(n+1) outgoing frames.
	RetransmitMult int // default 4
	// DeadRetentionTicks is how long a dead/left tombstone is remembered,
	// so late gossip about a removed member cannot resurrect it.
	DeadRetentionTicks int // default 64
	// VNodes is the ring's virtual-node count per site.
	VNodes int // default DefaultVNodes
	// Seed seeds probe-order shuffling; 0 derives one from the site name.
	Seed int64
	// Logf, when set, receives membership transitions.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults(site vnet.SiteID) {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 200 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 100 * time.Millisecond
	}
	if c.SuspectTicks <= 0 {
		c.SuspectTicks = 3
	}
	if c.IndirectProbes <= 0 {
		c.IndirectProbes = 2
	}
	if c.PiggybackMax <= 0 {
		c.PiggybackMax = 16
	}
	if c.RetransmitMult <= 0 {
		c.RetransmitMult = 4
	}
	if c.DeadRetentionTicks <= 0 {
		c.DeadRetentionTicks = 64
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Seed == 0 {
		c.Seed = int64(fnv64(string(site)))
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// LoadSink consumes the mesh's membership and load stream. *broker.Broker
// satisfies it (given its Drop method), which is how the paper's matchmaker
// is fed: every alive mesh member becomes a provider row, every gossiped
// load report a Report, every death a Drop.
type LoadSink interface {
	Register(service, site, agent string, capacity int64)
	Report(site string, load, seq int64)
	Drop(site string)
}

// ErrNoSeed is returned by Join when no configured seed answered.
var ErrNoSeed = errors.New("mesh: no seed reachable")

// member is the local view of one remote site (and of self).
type member struct {
	Entry
	// suspectedAt/diedAt record the tick of the transition, driving the
	// suspect timeout and tombstone retention.
	suspectedAt uint64
	diedAt      uint64
}

// update is one piggyback-queue item: an entry still owed `left` more
// transmissions.
type update struct {
	e    Entry
	left int
}

// Mesh is one site's membership in the fleet. Create with New, then either
// drive protocol periods explicitly with Tick (tests, simulations,
// benchmarks — simulated time is ticks × ProbeInterval) or Start a
// real-time ticker (tacomad).
type Mesh struct {
	site *core.Site
	cfg  Config

	ringv atomic.Pointer[Ring]

	mu      sync.Mutex
	members map[vnet.SiteID]*member
	queue   []update
	inc     uint64 // self incarnation (bumped to refute suspicion)
	tick    uint64 // protocol period counter
	rng     *rand.Rand
	order   []vnet.SiteID // shuffled probe round-robin
	orderAt int

	sink        LoadSink
	sinkService string
	sinkAgent   string
	sinkCap     int64

	onChange func(alive []vnet.SiteID)

	tickMu  sync.Mutex // serializes protocol periods
	stop    chan struct{}
	stopped sync.WaitGroup
	started bool
}

// New creates a mesh member bound to a site: it installs the gossip frame
// handler on the site's endpoint, installs itself as the site's
// agent-placement resolver, and starts with a one-member (self) ring. Call
// Join to meet the rest of the fleet.
func New(site *core.Site, cfg Config) *Mesh {
	cfg.setDefaults(site.ID())
	m := &Mesh{
		site:    site,
		cfg:     cfg,
		members: make(map[vnet.SiteID]*member),
		rng:     rand.New(rand.NewPCG(uint64(cfg.Seed), 0x6d657368)),
	}
	self := &member{Entry: Entry{Site: site.ID(), State: StateAlive}}
	m.members[site.ID()] = self
	m.rebuildRingLocked()
	site.HandleKind(KindGossip, m.handle)
	site.SetResolver(m)
	return m
}

// Site returns the site this mesh member is bound to.
func (m *Mesh) Site() *core.Site { return m.site }

// Ring returns the current placement ring snapshot.
func (m *Mesh) Ring() *Ring { return m.ringv.Load() }

// Resolve implements core.Resolver: the ring owner of the agent name.
func (m *Mesh) Resolve(agent string) (vnet.SiteID, bool) {
	return m.ringv.Load().Owner(agent)
}

// Members returns a snapshot of every known member (including tombstones).
func (m *Mesh) Members() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, mem.Entry)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Alive returns the sites currently considered alive or suspect (suspects
// stay in the ring until the timeout declares them dead), sorted.
func (m *Mesh) Alive() []vnet.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.aliveLocked()
}

func (m *Mesh) aliveLocked() []vnet.SiteID {
	out := make([]vnet.SiteID, 0, len(m.members))
	for id, mem := range m.members {
		if mem.State == StateAlive || mem.State == StateSuspect {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// OnChange installs a callback invoked (under the mesh lock — keep it
// cheap) whenever the alive set changes, with the new alive membership.
func (m *Mesh) OnChange(fn func(alive []vnet.SiteID)) {
	m.mu.Lock()
	m.onChange = fn
	m.mu.Unlock()
}

// FeedLoads connects a LoadSink (typically a *broker.Broker): every alive
// member is registered as a provider of service under the given meetable
// agent name and capacity, load reports stream in as they gossip, and dead
// members are dropped. The current membership is pushed immediately.
func (m *Mesh) FeedLoads(sink LoadSink, service, agent string, capacity int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sink, m.sinkService, m.sinkAgent, m.sinkCap = sink, service, agent, capacity
	for _, mem := range m.members {
		if mem.State == StateAlive || mem.State == StateSuspect {
			sink.Register(service, string(mem.Site), agent, capacity)
			sink.Report(string(mem.Site), mem.Load, int64(mem.LoadSeq))
		}
	}
}

// Join contacts the configured seeds and merges their membership tables.
// At least one seed must answer; joining an empty seed list (or only
// ourselves) succeeds trivially — we are a fleet of one until someone joins
// us.
func (m *Mesh) Join(ctx context.Context) error {
	var contacted, errs int
	var lastErr error
	for _, seed := range m.cfg.Seeds {
		if seed == m.site.ID() {
			continue
		}
		contacted++
		if err := m.callAndMerge(ctx, seed, TypeJoin, "", m.cfg.ProbeTimeout); err != nil {
			errs++
			lastErr = err
			continue
		}
	}
	if contacted > 0 && errs == contacted {
		return fmt.Errorf("%w: %v", ErrNoSeed, lastErr)
	}
	return nil
}

// Leave announces a graceful departure to a few members (best effort) so
// the fleet removes us without waiting out a suspicion timeout.
func (m *Mesh) Leave(ctx context.Context) {
	m.mu.Lock()
	m.inc++
	self := m.members[m.site.ID()]
	self.State = StateLeft
	self.Inc = m.inc
	self.diedAt = m.tick
	if m.sink != nil {
		m.sink.Drop(string(m.site.ID()))
	}
	targets := m.aliveLocked()
	m.membershipChangedLocked()
	m.mu.Unlock()
	notified := 0
	for _, t := range targets {
		if t == m.site.ID() {
			continue
		}
		if err := m.callAndMerge(ctx, t, TypePing, "", m.cfg.ProbeTimeout); err == nil {
			if notified++; notified >= m.cfg.IndirectProbes+1 {
				break
			}
		}
	}
}

// Start runs the protocol in real time: one Tick per ProbeInterval until
// Stop. Tests and benchmarks that want simulated time call Tick directly
// instead.
func (m *Mesh) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.stop = make(chan struct{})
	m.mu.Unlock()
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Tick(context.Background())
			}
		}
	}()
}

// Stop halts a Started ticker. The frame handler stays installed: a stopped
// mesh still answers probes (and so looks alive); tear the site down to
// look dead.
func (m *Mesh) Stop() {
	m.mu.Lock()
	if !m.started {
		m.mu.Unlock()
		return
	}
	m.started = false
	close(m.stop)
	m.mu.Unlock()
	m.stopped.Wait()
}

// Tick runs one protocol period: refresh the self load report, probe one
// member (with indirect fallback), and expire suspicion and retention
// timers. Simulated-time convergence is measured in Ticks: one Tick stands
// for ProbeInterval of protocol time. Ticks serialize; concurrent callers
// queue.
func (m *Mesh) Tick(ctx context.Context) {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()

	m.mu.Lock()
	m.tick++
	now := m.tick
	// Self report: load and resident-agent population at this period.
	self := m.members[m.site.ID()]
	self.LoadSeq = now
	self.Load = m.site.Load()
	self.Agents = int64(m.site.AgentCount())
	self.Inc = m.inc
	m.reportLocked(self)
	target, ok := m.nextProbeTargetLocked()
	m.expireLocked(now)
	m.mu.Unlock()

	if !ok {
		return
	}
	if err := m.callAndMerge(ctx, target, TypePing, "", m.cfg.ProbeTimeout); err == nil {
		return
	}
	// Direct probe failed: ask k members to probe on our behalf before
	// concluding anything — one lossy or partitioned link must not produce
	// a fleet-wide death verdict.
	if m.indirectProbe(ctx, target) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[target]
	if !ok || mem.State != StateAlive {
		return
	}
	mem.State = StateSuspect
	mem.suspectedAt = m.tick
	m.cfg.logf("mesh %s: suspect %s (inc %d)", m.site.ID(), target, mem.Inc)
	m.enqueueLocked(mem.Entry)
}

// indirectProbe asks up to IndirectProbes random members to ping target;
// true when any relay confirms the target alive.
func (m *Mesh) indirectProbe(ctx context.Context, target vnet.SiteID) bool {
	m.mu.Lock()
	var relays []vnet.SiteID
	for _, id := range m.aliveLocked() {
		if id != m.site.ID() && id != target {
			relays = append(relays, id)
		}
	}
	m.rng.Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
	if len(relays) > m.cfg.IndirectProbes {
		relays = relays[:m.cfg.IndirectProbes]
	}
	m.mu.Unlock()
	if len(relays) == 0 {
		return false
	}
	ok := make(chan bool, len(relays))
	for _, r := range relays {
		go func(relay vnet.SiteID) {
			// The relay must reach us, probe the target (one ProbeTimeout of
			// its own), and answer — so the outer call gets a multiple of the
			// single-hop budget, or indirect probes would time out exactly
			// when they matter: when links are slow.
			ok <- m.callAndMerge(ctx, relay, TypePingReq, target, 3*m.cfg.ProbeTimeout) == nil
		}(r)
	}
	alive := false
	for range relays {
		if <-ok {
			alive = true
		}
	}
	return alive
}

// nextProbeTargetLocked picks the next member in the shuffled round-robin —
// SWIM's probe schedule, which bounds worst-case detection latency to one
// full round instead of the coupon-collector tail of pure random picks.
func (m *Mesh) nextProbeTargetLocked() (vnet.SiteID, bool) {
	for tries := 0; tries < 2; tries++ {
		for m.orderAt < len(m.order) {
			id := m.order[m.orderAt]
			m.orderAt++
			if mem, ok := m.members[id]; ok &&
				(mem.State == StateAlive || mem.State == StateSuspect) {
				return id, true
			}
		}
		m.order = m.order[:0]
		for id, mem := range m.members {
			if id == m.site.ID() {
				continue
			}
			if mem.State == StateAlive || mem.State == StateSuspect {
				m.order = append(m.order, id)
			}
		}
		sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
		m.rng.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
		m.orderAt = 0
	}
	return "", false
}

// expireLocked advances suspicion and tombstone timers at tick now.
func (m *Mesh) expireLocked(now uint64) {
	changed := false
	for id, mem := range m.members {
		switch mem.State {
		case StateSuspect:
			if now-mem.suspectedAt >= uint64(m.cfg.SuspectTicks) {
				mem.State = StateDead
				mem.diedAt = now
				m.cfg.logf("mesh %s: dead %s (inc %d)", m.site.ID(), id, mem.Inc)
				m.enqueueLocked(mem.Entry)
				if m.sink != nil {
					m.sink.Drop(string(id))
				}
				changed = true
			}
		case StateDead, StateLeft:
			// The self entry is never evicted: Tick and buildFrameLocked
			// dereference it unconditionally, and a mesh that has Left may
			// keep ticking and answering frames until the site tears down.
			if id != m.site.ID() && now-mem.diedAt >= uint64(m.cfg.DeadRetentionTicks) {
				delete(m.members, id)
			}
		}
	}
	if changed {
		m.membershipChangedLocked()
	}
}

// callAndMerge sends one frame (with piggyback), bounded by timeout, and
// merges the ack.
func (m *Mesh) callAndMerge(ctx context.Context, to vnet.SiteID, typ byte, target vnet.SiteID, timeout time.Duration) error {
	f := m.buildFrame(typ, target)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := m.site.Endpoint().Call(ctx, to, KindGossip, AppendFrame(nil, f))
	if err != nil {
		return err
	}
	ack, err := DecodeFrame(resp)
	if err != nil {
		return err
	}
	m.mergeEntries(ack.Entries)
	return nil
}

// buildFrame assembles an outgoing frame: the self entry plus up to
// PiggybackMax pending updates.
func (m *Mesh) buildFrame(typ byte, target vnet.SiteID) *Frame {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buildFrameLocked(typ, target)
}

func (m *Mesh) buildFrameLocked(typ byte, target vnet.SiteID) *Frame {
	f := &Frame{Type: typ, Target: target}
	self := m.members[m.site.ID()]
	f.Entries = append(f.Entries, self.Entry)
	// Fewest-transmissions-first (SWIM §4.1): when more than PiggybackMax
	// updates are pending, the least-gossiped ones go out first — otherwise
	// the queue front would be retransmitted every frame while updates
	// behind it starve. Ties keep queue (arrival) order.
	sort.SliceStable(m.queue, func(i, j int) bool {
		return m.queue[i].left > m.queue[j].left
	})
	n := 0
	for i := 0; i < len(m.queue) && n < m.cfg.PiggybackMax; i++ {
		u := &m.queue[i]
		if u.e.Site == m.site.ID() {
			continue // self already attached, fresher
		}
		f.Entries = append(f.Entries, u.e)
		u.left--
		n++
	}
	// Compact spent updates.
	live := m.queue[:0]
	for _, u := range m.queue {
		if u.left > 0 {
			live = append(live, u)
		}
	}
	m.queue = live
	return f
}

// enqueueLocked queues an entry for piggybacked dissemination. A fresh
// update for a site replaces any queued older one (the new fact supersedes
// it everywhere).
func (m *Mesh) enqueueLocked(e Entry) {
	n := len(m.members)
	left := m.cfg.RetransmitMult * (bits.Len(uint(n)) + 1)
	for i := range m.queue {
		if m.queue[i].e.Site == e.Site {
			m.queue[i] = update{e: e, left: left}
			return
		}
	}
	m.queue = append(m.queue, update{e: e, left: left})
}

// mergeEntries folds gossiped entries into the member table.
func (m *Mesh) mergeEntries(entries []Entry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, e := range entries {
		if m.mergeOneLocked(e) {
			changed = true
		}
	}
	if changed {
		m.membershipChangedLocked()
	}
}

// stateRank orders states within one incarnation: later ranks override
// earlier ones. A suspect overrides alive at the same incarnation (that is
// what forces the suspect to refute by bumping its incarnation), dead
// overrides suspect, left overrides everything — a graceful goodbye is
// final.
func stateRank(s State) int {
	switch s {
	case StateAlive:
		return 0
	case StateSuspect:
		return 1
	case StateDead:
		return 2
	case StateLeft:
		return 3
	}
	return -1
}

// mergeOneLocked applies one gossiped fact; reports whether the alive set
// changed.
func (m *Mesh) mergeOneLocked(e Entry) bool {
	if e.Site == m.site.ID() {
		// Gossip about ourselves. Any non-alive claim at our current (or
		// later) incarnation is refuted by re-announcing at a higher one —
		// SWIM's liveness proof: only the member itself ever bumps its
		// incarnation. Unless we left on purpose: refuting our own goodbye
		// would resurrect us from the ack that echoes it back.
		if m.members[e.Site].State == StateLeft {
			return false
		}
		if e.State != StateAlive && e.Inc >= m.inc {
			m.inc = e.Inc + 1
			self := m.members[e.Site]
			self.Inc = m.inc
			self.State = StateAlive
			m.cfg.logf("mesh %s: refuting %s claim (inc %d -> %d)", m.site.ID(), e.State, e.Inc, m.inc)
			m.enqueueLocked(self.Entry)
		}
		return false
	}
	mem, known := m.members[e.Site]
	if !known {
		if e.State == StateDead || e.State == StateLeft {
			// Tombstone for a stranger: remember it so late alive-gossip at
			// an older incarnation cannot resurrect the member.
			m.members[e.Site] = &member{Entry: e, diedAt: m.tick}
			return false
		}
		mem = &member{Entry: e}
		if e.State == StateSuspect {
			mem.suspectedAt = m.tick
		}
		m.members[e.Site] = mem
		m.cfg.logf("mesh %s: learned %s (%s, inc %d)", m.site.ID(), e.Site, e.State, e.Inc)
		m.enqueueLocked(mem.Entry)
		m.registerLocked(mem)
		return true
	}
	wasInRing := mem.State == StateAlive || mem.State == StateSuspect
	newer := e.Inc > mem.Inc ||
		(e.Inc == mem.Inc && stateRank(e.State) > stateRank(mem.State))
	if newer {
		mem.Inc = e.Inc
		mem.State = e.State
		switch e.State {
		case StateSuspect:
			mem.suspectedAt = m.tick
		case StateDead, StateLeft:
			mem.diedAt = m.tick
		}
		m.enqueueLocked(Entry{Site: e.Site, State: e.State, Inc: e.Inc,
			LoadSeq: mem.LoadSeq, Load: mem.Load, Agents: mem.Agents})
	}
	m.reportFromLocked(mem, e)
	nowInRing := mem.State == StateAlive || mem.State == StateSuspect
	if wasInRing != nowInRing {
		m.cfg.logf("mesh %s: %s is now %s (inc %d)", m.site.ID(), e.Site, mem.State, mem.Inc)
		if m.sink != nil {
			if nowInRing {
				m.registerLocked(mem)
			} else {
				m.sink.Drop(string(e.Site))
			}
		}
		return true
	}
	return false
}

// reportFromLocked folds a gossiped load report into a member (freshness by
// LoadSeq) and streams it to the sink.
func (m *Mesh) reportFromLocked(mem *member, e Entry) {
	if e.LoadSeq <= mem.LoadSeq {
		return
	}
	mem.LoadSeq = e.LoadSeq
	mem.Load = e.Load
	mem.Agents = e.Agents
	m.reportLocked(mem)
}

// reportLocked pushes a member's current load report to the sink.
func (m *Mesh) reportLocked(mem *member) {
	if m.sink != nil && (mem.State == StateAlive || mem.State == StateSuspect) {
		m.sink.Report(string(mem.Site), mem.Load, int64(mem.LoadSeq))
	}
}

// registerLocked adds a member to the sink's provider table.
func (m *Mesh) registerLocked(mem *member) {
	if m.sink != nil {
		m.sink.Register(m.sinkService, string(mem.Site), m.sinkAgent, m.sinkCap)
		m.sink.Report(string(mem.Site), mem.Load, int64(mem.LoadSeq))
	}
}

// membershipChangedLocked rebuilds the ring and fires the change callback.
func (m *Mesh) membershipChangedLocked() {
	m.rebuildRingLocked()
	if m.onChange != nil {
		m.onChange(m.aliveLocked())
	}
}

func (m *Mesh) rebuildRingLocked() {
	m.ringv.Store(BuildRing(m.aliveLocked(), m.cfg.VNodes))
}

// handle serves one incoming gossip frame (installed via Site.HandleKind).
func (m *Mesh) handle(from vnet.SiteID, _ string, payload []byte) ([]byte, error) {
	f, err := DecodeFrame(payload)
	if err != nil {
		// Unknown versions and malformed frames are ignored — the error
		// travels back to the (possibly newer) sender, and no local state
		// moves.
		return nil, err
	}
	m.mergeEntries(f.Entries)
	switch f.Type {
	case TypePing:
		// ack below
	case TypeJoin:
		// The joiner gets the full table, not just the piggyback window:
		// bootstrap is the one moment completeness beats bounded fanout.
		m.mu.Lock()
		ack := &Frame{Type: TypeAck}
		for _, mem := range m.members {
			ack.Entries = append(ack.Entries, mem.Entry)
		}
		m.mu.Unlock()
		return AppendFrame(nil, ack), nil
	case TypePingReq:
		if f.Target == "" || f.Target == m.site.ID() {
			return nil, fmt.Errorf("%w: ping-req target %q", ErrFrame, f.Target)
		}
		// Relay: probe the target on the requester's behalf. Our own probe
		// machinery merges whatever the target tells us; the requester gets
		// our ack only if the target answered.
		if err := m.callAndMerge(context.Background(), f.Target, TypePing, "", m.cfg.ProbeTimeout); err != nil {
			return nil, fmt.Errorf("mesh: indirect probe of %s failed: %w", f.Target, err)
		}
	case TypeAck:
		return nil, fmt.Errorf("%w: unexpected ack request", ErrFrame)
	}
	m.mu.Lock()
	ack := m.buildFrameLocked(TypeAck, "")
	m.mu.Unlock()
	_ = from
	return AppendFrame(nil, ack), nil
}
