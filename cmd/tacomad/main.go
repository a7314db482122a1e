// Command tacomad runs one TACOMA site as a network daemon speaking the
// TCP transport. Several tacomad processes (on one machine or many) form a
// TACOMA system: agents injected at any site can roam the rest.
//
// Usage:
//
//	tacomad -site site-0 -listen 127.0.0.1:7100 \
//	        -peer site-1=127.0.0.1:7101 -peer site-2=127.0.0.1:7102
//
// The daemon installs the standard system agents (ag_tacl, rexec, courier,
// diffusion), a mailbox, and the rear-guard machinery, and registers each
// -peer in the site-local SITES folder so diffusion agents can spread.
//
// A WAL-backed daemon (-wal) can be paired with a cold standby for
// failover: the leader adds -replica-listen name=host:port to ship its WAL
// to the standby in the background, and the standby runs with -replica-of
// leader -wal <dir> — refusing meets, landing shipped bytes durably, and
// promoting itself in place (guards re-armed, parked agents re-registered)
// when the leader dies:
//
//	tacomad -site L -listen 127.0.0.1:7100 -wal /var/l.wal \
//	        -replica-listen F=127.0.0.1:7200
//	tacomad -site F -listen 127.0.0.1:7200 -wal /var/f.wal \
//	        -replica-of L -peer L=127.0.0.1:7100
//
// Guard flags turn the daemon into a firewall site: -firewall rejects
// unsigned inbound agents, -enroll name=hexkey installs signature keys,
// -allow name=agents grants meet capabilities, -meter-steps/-activation-fee
// charge visiting agents electronic cash for cycles, and -auth-secret adds
// the HMAC handshake at the TCP transport layer:
//
//	tacomad -site fw -listen 127.0.0.1:7103 -firewall \
//	        -enroll alice=$(openssl rand -hex 32) -allow 'alice=ag_*' \
//	        -meter-steps 1000 -activation-fee 1 -auth-secret deadbeef
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
	"repro/internal/mail"
	"repro/internal/mesh"
	"repro/internal/rearguard"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/vnet"
)

type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("peer must be name=host:port, got %q", v)
	}
	*p = append(*p, v)
	return nil
}

// strList collects plain repeatable flags (-mesh-seed).
type strList []string

func (l *strList) String() string { return strings.Join(*l, ",") }
func (l *strList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// kvList collects repeatable name=value flags (-enroll, -allow).
type kvList []string

func (l *kvList) String() string { return strings.Join(*l, ",") }
func (l *kvList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("must be name=value, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	site := flag.String("site", "site-0", "this site's name")
	listen := flag.String("listen", "127.0.0.1:7100", "listen address")
	maxSteps := flag.Int("max-steps", 1<<20, "TacL step budget per agent activation")
	walDir := flag.String("wal", "", "write-ahead-log directory: every cabinet mutation is crash-durable, recovered on boot (without it the cabinet is in-memory)")
	var peers peerList
	flag.Var(&peers, "peer", "peer site as name=host:port (repeatable)")

	// Mesh flags: -mesh-join makes the daemon a fleet member — gossip
	// membership plus consistent-hash agent placement, with misplaced meets
	// forwarded one hop to the ring owner.
	meshJoin := flag.Bool("mesh-join", false, "join the site mesh (gossip membership + agent placement)")
	meshInterval := flag.Duration("mesh-interval", 200*time.Millisecond, "mesh protocol period (probe interval)")
	var meshSeeds strList
	flag.Var(&meshSeeds, "mesh-seed", "mesh seed site name, must also be a -peer (repeatable)")

	// Replication flags: a leader ships its WAL to a standby
	// (-replica-listen names the standby); the standby runs with
	// -replica-of and promotes itself when the leader dies.
	replicaOf := flag.String("replica-of", "", "run as a cold standby replica of this leader site (must also be a -peer): shipped WAL bytes land in -wal, the leader is probed, and on its death this site promotes in place; requires -wal")
	replicaListen := flag.String("replica-listen", "", "ship this site's WAL to the standby replica listening at name=host:port; requires -wal")
	probeInterval := flag.Duration("replica-probe-interval", 250*time.Millisecond, "with -replica-of, the pause between leader-death probe rounds")

	// Guard subsystem flags. Any of them installs a guard at the site.
	firewall := flag.Bool("firewall", false, "reject unsigned/unauthorized inbound agents at the network boundary")
	requireCash := flag.Bool("require-cash", false, "firewall additionally rejects agents carrying no electronic cash")
	authSecret := flag.String("auth-secret", "", "hex-encoded shared TCP authentication secret (HMAC handshake)")
	meterSteps := flag.Int("meter-steps", 0, "charge visiting agents 1 ECU per this many TacL steps (0 = no metering)")
	activationFee := flag.Int64("activation-fee", 0, "ECUs charged per metered activation")
	var enrolls, allows kvList
	flag.Var(&enrolls, "enroll", "principal=hexkey signature key (repeatable)")
	flag.Var(&allows, "allow", "principal=agent1,agent2 meet capability, globs ok (repeatable)")
	flag.Parse()

	ep, err := vnet.NewTCPEndpoint(vnet.SiteID(*site), *listen)
	if err != nil {
		log.Fatalf("tacomad: %v", err)
	}
	if *authSecret != "" {
		key, err := hex.DecodeString(*authSecret)
		if err != nil {
			log.Fatalf("tacomad: bad -auth-secret: %v", err)
		}
		ep.SetAuthKey(key)
	}
	follower := *replicaOf != ""
	if follower && *replicaListen != "" {
		log.Fatalf("tacomad: -replica-of and -replica-listen are mutually exclusive (no chained replication)")
	}
	if follower && *walDir == "" {
		log.Fatalf("tacomad: -replica-of needs -wal (the replica directory)")
	}
	if *replicaListen != "" && *walDir == "" {
		log.Fatalf("tacomad: -replica-listen needs -wal (there is nothing to ship otherwise)")
	}

	// "File cabinets can be flushed to disk when permanence is required."
	// With -wal every mutation is crash-durable via the group-committed
	// write-ahead log, and a restarted site replays snapshot + log tail
	// and re-arms its rear guards. Recovery runs BEFORE the site exists:
	// NewSite installs the network handler (calls are refused until then),
	// so no boot-window meet can be served — and acknowledged — against a
	// half-recovered, journal-less cabinet.
	// A sticky sync failure means durability is gone for good (the WAL
	// refuses further commits); say so the moment it happens, loudly, not
	// just as an error on whichever meet next hits the Sync path.
	walOpt := store.Options{
		Logf: log.Printf,
		OnFailure: func(err error) {
			log.Printf("tacomad: WAL SYNC FAILURE (sticky): %v — durability is lost and further commits are refused; restart this site on a healthy disk", err)
		},
	}
	var wal *store.WAL
	siteCfg := core.SiteConfig{MaxSteps: *maxSteps}
	if follower {
		// Standby replicas are a disk, not a place agents run: refuse
		// every meet until promotion swaps in a live site.
		leader := *replicaOf
		siteCfg.Admission = func(agent, from string) error {
			return fmt.Errorf("standby replica of %s", leader)
		}
	} else if *walDir != "" {
		cab := folder.NewCabinet()
		var werr error
		wal, werr = store.Open(*walDir, cab, walOpt)
		if werr != nil {
			log.Fatalf("tacomad: open WAL %s: %v", *walDir, werr)
		}
		siteCfg.Cabinet = cab
		siteCfg.Durable = wal
	}

	s := core.NewSite(ep, siteCfg)
	mail.InstallMailbox(s)
	rgm := rearguard.Install(s)

	var g *guard.Guard
	if *firewall || *requireCash || *meterSteps > 0 || *activationFee > 0 ||
		len(enrolls) > 0 || len(allows) > 0 {
		var gerr error
		g, gerr = buildGuard(*firewall, *requireCash, *meterSteps, *activationFee, enrolls, allows)
		if gerr != nil {
			log.Fatalf("tacomad: %v", gerr)
		}
		guard.Install(s, g)
		log.Printf("tacomad: guard installed (firewall=%v, metering=%v, principals=%v)",
			*firewall, g.Meter != nil, g.Keys.Principals())
	}

	if wal != nil {
		guards := rgm.Recover()
		parked := s.RecoverParked()
		log.Printf("tacomad: WAL %s recovered (%d folders, %d rear guards re-armed, %d parked agents re-registered)",
			*walDir, s.Cabinet().Len(), guards, parked)
	}

	for _, p := range peers {
		name, addr, _ := strings.Cut(p, "=")
		ep.AddPeer(vnet.SiteID(name), addr)
		s.Cabinet().TestAndAppendString(folder.SitesFolder, name)
	}

	if len(meshSeeds) > 0 && !*meshJoin {
		log.Fatalf("tacomad: -mesh-seed needs -mesh-join")
	}
	var m *mesh.Mesh
	var meshJoinWG sync.WaitGroup
	stopMeshJoin := make(chan struct{})
	if *meshJoin {
		known := make(map[string]bool, len(peers))
		for _, p := range peers {
			name, _, _ := strings.Cut(p, "=")
			known[name] = true
		}
		seeds := make([]vnet.SiteID, 0, len(meshSeeds))
		for _, seed := range meshSeeds {
			if !known[seed] {
				log.Fatalf("tacomad: -mesh-seed %s is not a -peer", seed)
			}
			seeds = append(seeds, vnet.SiteID(seed))
		}
		m = mesh.New(s, mesh.Config{
			Seeds:         seeds,
			ProbeInterval: *meshInterval,
			Logf:          log.Printf,
		})
		// Seeds may come up after us; keep retrying the join until one
		// answers, then let the protocol take over.
		meshJoinWG.Add(1)
		go func() {
			defer meshJoinWG.Done()
			for {
				err := m.Join(context.Background())
				if err == nil {
					log.Printf("tacomad: mesh joined, %d members known", len(m.Alive()))
					return
				}
				log.Printf("tacomad: mesh join: %v (retrying)", err)
				select {
				case <-stopMeshJoin:
					return
				case <-time.After(2 * *meshInterval):
				}
			}
		}()
		m.Start()
	}

	// Replication wiring. The leader ships asynchronously in the
	// background; the follower serves the repl lane and watches the leader,
	// promoting itself in place when the leader dies.
	var ldr *repl.Leader
	var fol *repl.Follower
	promoted := make(chan *repl.Takeover, 1)
	if *replicaListen != "" {
		name, addr, ok := strings.Cut(*replicaListen, "=")
		if !ok || name == "" || addr == "" {
			log.Fatalf("tacomad: -replica-listen must be name=host:port, got %q", *replicaListen)
		}
		ep.AddPeer(vnet.SiteID(name), addr)
		ldr = repl.StartLeader(ep, wal, repl.LeaderConfig{
			Follower: vnet.SiteID(name),
			Logf:     log.Printf,
		})
		log.Printf("tacomad: shipping WAL %s to standby %s at %s", *walDir, name, addr)
	}
	if follower {
		leader := vnet.SiteID(*replicaOf)
		known := false
		for _, p := range peers {
			if name, _, _ := strings.Cut(p, "="); name == *replicaOf {
				known = true
			}
		}
		if !known {
			log.Fatalf("tacomad: -replica-of %s is not a -peer", *replicaOf)
		}
		var ferr error
		fol, ferr = repl.NewFollower(s, repl.FollowerConfig{
			Dir:           *walDir,
			Leader:        leader,
			ProbeInterval: *probeInterval,
			Logf:          log.Printf,
		})
		if ferr != nil {
			log.Fatalf("tacomad: open replica %s: %v", *walDir, ferr)
		}
		promote := func() {
			log.Printf("tacomad: leader %s declared dead; promoting", leader)
			tk, err := fol.Promote(core.SiteConfig{MaxSteps: *maxSteps}, walOpt, nil)
			if err != nil {
				log.Printf("tacomad: promote: %v", err)
				return
			}
			mail.InstallMailbox(tk.Site)
			if g != nil {
				guard.Install(tk.Site, g)
			}
			log.Printf("tacomad: PROMOTED in place of %s (%d folders, %d rear guards re-armed, %d parked agents re-registered)",
				leader, tk.Cabinet.Len(), tk.RearmedGuards, tk.Parked)
			promoted <- tk
		}
		fol.StartProbe(promote)
		if m != nil {
			// A mesh death verdict beats the local probe when gossip
			// converges first; both funnel into the same once-only
			// trigger. Only a leader previously seen alive counts — the
			// thin membership before gossip converges must not promote.
			var seen atomic.Bool
			m.OnChange(func(alive []vnet.SiteID) {
				for _, a := range alive {
					if a == leader {
						seen.Store(true)
						return
					}
				}
				if seen.Load() {
					fol.LeaderDead(promote)
				}
			})
		}
		log.Printf("tacomad: standby replica of %s (replica dir %s, probe every %v)",
			leader, *walDir, *probeInterval)
	}

	log.Printf("tacomad: site %s listening on %s with %d peers, agents: %v",
		*site, ep.Addr(), len(peers), s.AgentNames())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	for wait := true; wait; {
		select {
		case <-sig:
			wait = false
		case tk := <-promoted:
			// Promotion in place: the promoted site owns the endpoint and
			// its WAL from here on; keep serving until a signal arrives.
			s, wal = tk.Site, tk.WAL
		}
	}
	log.Printf("tacomad: site %s shutting down", *site)
	// Shutdown failures are logged, never fatal: each cleanup step must run
	// even when an earlier one fails. Ordering matters: everything that
	// needs the endpoint — the mesh goodbye, the replication drain, and the
	// durability barrier for already-acked meets — runs before ep.Close.
	close(stopMeshJoin)
	meshJoinWG.Wait()
	if m != nil {
		// Announce a graceful departure so the fleet removes this site
		// immediately instead of waiting out a suspicion timeout.
		leaveCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		m.Leave(leaveCtx)
		cancel()
		m.Stop()
	}
	if ldr != nil {
		// Hand the standby the full tail while the wire still exists; a
		// graceful shutdown should leave a promotable replica behind.
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := ldr.Drain(drainCtx); err != nil {
			log.Printf("tacomad: replica drain: %v", err)
		}
		cancel()
		ldr.Stop()
	}
	if wal != nil {
		// Final sync BEFORE the endpoint closes: every meet acked over the
		// wire is on disk by the time peers see the connection die.
		if err := wal.Sync(); err != nil {
			log.Printf("tacomad: final WAL sync: %v", err)
		}
	}
	if err := ep.Close(); err != nil {
		log.Printf("tacomad: close: %v", err)
	}
	s.Wait()
	if fol != nil {
		if err := fol.Close(); err != nil {
			log.Printf("tacomad: close replica: %v", err)
		}
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			log.Printf("tacomad: close WAL: %v", err)
		} else {
			log.Printf("tacomad: WAL %s synced", *walDir)
		}
	}
}

// buildGuard assembles the guard subsystem from the command-line flags.
func buildGuard(firewall, requireCash bool, meterSteps int, activationFee int64, enrolls, allows kvList) (*guard.Guard, error) {
	keys := guard.NewKeyring()
	for _, e := range enrolls {
		name, hexKey, _ := strings.Cut(e, "=")
		key, err := hex.DecodeString(hexKey)
		if err != nil {
			return nil, fmt.Errorf("bad -enroll key for %q: %w", name, err)
		}
		keys.Add(name, key)
	}
	policy := guard.NewPolicy()
	policy.SetFirewall(firewall)
	policy.SetRequireCash(requireCash)
	for _, a := range allows {
		name, agents, _ := strings.Cut(a, "=")
		var meet []string
		if agents != "" {
			meet = strings.Split(agents, ",")
		} else {
			meet = []string{}
		}
		policy.Grant(name, guard.Capability{Meet: meet})
	}
	g := guard.New(policy, keys)
	if meterSteps > 0 || activationFee > 0 {
		g.Meter = guard.NewMeter(meterSteps, activationFee)
	}
	return g, nil
}
