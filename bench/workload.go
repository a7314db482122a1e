package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/store"
	"repro/internal/vnet"
)

// The TacL agents the workloads run. They belong to the benchmark: a change
// to a script inside the program cannot move these numbers.
var (
	//go:embed testdata/itinerary.tacl
	itinerarySrc string
	//go:embed testdata/compute.tacl
	computeSrc string
	//go:embed testdata/resident.tacl
	residentSrc string
	//go:embed testdata/collector.tacl
	collectorSrc string
)

// env is what a workload is built from.
type env struct {
	seed    int64
	clients int
	// workdir holds the directories of the workloads that write to disk.
	workdir string
}

// workload is one named set of inputs and the part of the system it drives.
// A value is set up once, used by env.clients goroutines that each call op
// with their own client number, and torn down once.
type workload interface {
	// setup builds the sites, endpoints, populations and logs. It is what
	// setup_s times.
	setup(e env) error
	// op generates the inputs of op i of client c from the seed, runs the
	// op, and checks its output. An error counts the op as failed.
	op(c int, i int64) error
	// finish checks, after the last op, whatever can only be checked then.
	// An error means an answer that was counted as right was wrong.
	finish() error
	// teardown stops every goroutine and removes every file setup made.
	teardown()

	// probe calls into each layer the op crosses, with the inputs of op i
	// of client c, timing each call as a child span of parent.
	probe(tr *tracer, c int, parent int64, i int64)
	// counters reads the public Stats of the sites the ops run on.
	counters() counters
	// attribute turns the probes' mean times and the counter deltas per op
	// into the per-layer metrics of one op.
	attribute(p probeStats, perOp counters) map[string]float64
}

// workloadNames lists the workloads in the order they run.
var workloadNames = []string{"itinerary", "courier", "script", "durable", "resident", "stormcast"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "itinerary":
		return &itinerary{}, nil
	case "courier":
		return &courier{}, nil
	case "script":
		return &script{}, nil
	case "durable":
		return &durable{}, nil
	case "resident":
		return &resident{}, nil
	case "stormcast":
		return &stormcastRun{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// probeStats is what the probes of one traced pass measured, by span name.
type probeStats struct {
	unit  map[string]float64 // mean time of one probe call, µs
	count map[string]int     // probe calls made
}

// Probe span names. The per-layer time metric of a layer is its span name
// followed by "_us".
const (
	spanOp       = ".op" // suffix: "<workload>.op" is the op itself
	spanCodec    = "folder.codec"
	spanCabinet  = "folder.cabinet"
	spanCall     = "vnet.call"
	spanDispatch = "core.dispatch"
	spanVerify   = "guard.verify"
	spanEval     = "tacl.eval"
	spanWake     = "sched.wake"
	spanCommit   = "store.commit"
	spanModel    = "stormcast.model"
)

// Per-layer metrics that are not the time of a probe.
const (
	mWireBytes    = "folder.wire_bytes_per_op"
	mRefRatio     = "folder.delta_ref_ratio"
	mMisses       = "core.misses_per_op"
	mSteals       = "sched.steals_per_op"
	mRecsPerSync  = "store.records_per_sync"
	mSyncsPerOp   = "store.syncs_per_op"
	mBytesPerOp   = "store.bytes_per_op"
	mCompactions  = "store.compactions"
	mOpMean       = "op_mean_us"
	mUnattributed = "unattributed_share"
	mTracedOps    = "traced_ops_per_s"
)

// refWireBytes is what a folder shipped as a content reference costs on the
// wire: the entry tag and the SHA-256.
const refWireBytes = 33

// counters is the sum of the public Stats snapshots of a workload's sites.
// As a delta divided by the op count it holds per-op values.
type counters struct {
	Activations float64 `json:"activations"`  // core.Site.Activations
	RemoteMeets float64 `json:"remote_meets"` // core.WireStats.MeetsV2 + MeetsV1
	Misses      float64 `json:"misses"`       // core.WireStats.Misses
	FullFolders float64 `json:"full_folders"` // core.WireStats.FullFolders
	FullBytes   float64 `json:"full_bytes"`   // core.WireStats.FullBytes
	RefFolders  float64 `json:"ref_folders"`  // core.WireStats.RefFolders
	Steals      float64 `json:"steals"`       // sched.Stats.Steals
	Records     float64 `json:"records"`      // store.Stats.Records
	Syncs       float64 `json:"syncs"`        // store.Stats.Syncs
	Compactions float64 `json:"compactions"`  // store.Stats.Compactions
}

// siteCounters sums the kernel and scheduler counters of the given sites.
func siteCounters(sites ...*core.Site) counters {
	var c counters
	for _, s := range sites {
		ws := s.WireStats()
		c.Activations += float64(s.Activations())
		c.RemoteMeets += float64(ws.MeetsV2 + ws.MeetsV1)
		c.Misses += float64(ws.Misses)
		c.FullFolders += float64(ws.FullFolders)
		c.FullBytes += float64(ws.FullBytes)
		c.RefFolders += float64(ws.RefFolders)
		c.Steals += float64(s.Scheduler().Stats().Steals)
	}
	return c
}

// addStore adds a log's counters.
func (c *counters) addStore(w *store.WAL) {
	st := w.Stats()
	c.Records += float64(st.Records)
	c.Syncs += float64(st.Syncs)
	c.Compactions += float64(st.Compactions)
}

// perOp returns (c - before) / ops. Compactions stay a count.
func (c counters) perOp(before counters, ops float64) counters {
	return counters{
		Activations: (c.Activations - before.Activations) / ops,
		RemoteMeets: (c.RemoteMeets - before.RemoteMeets) / ops,
		Misses:      (c.Misses - before.Misses) / ops,
		FullFolders: (c.FullFolders - before.FullFolders) / ops,
		FullBytes:   (c.FullBytes - before.FullBytes) / ops,
		RefFolders:  (c.RefFolders - before.RefFolders) / ops,
		Steals:      (c.Steals - before.Steals) / ops,
		Records:     (c.Records - before.Records) / ops,
		Syncs:       (c.Syncs - before.Syncs) / ops,
		Compactions: c.Compactions - before.Compactions,
	}
}

// wireMetrics are the counts every workload reports from its wire counters;
// they are zero where nothing crosses a wire.
func (c counters) wireMetrics(into map[string]float64) {
	into[mWireBytes] = c.FullBytes + refWireBytes*c.RefFolders
	if n := c.FullFolders + c.RefFolders; n > 0 {
		into[mRefRatio] = c.RefFolders / n
	}
	into[mMisses] = c.Misses
}

// storeMetrics are the counts the workloads with a log report.
func (c counters) storeMetrics(into map[string]float64, sp *storeProbe, commits int) {
	if c.Syncs > 0 {
		into[mRecsPerSync] = c.Records / c.Syncs
	}
	into[mSyncsPerOp] = c.Syncs
	into[mCompactions] = c.Compactions
	if commits > 0 {
		into[mBytesPerOp] = float64(sp.bytes()) / float64(commits)
	}
}

// Names of what the benchmark installs at sites for its probes.
const (
	noopAgent = "bench-noop"
	echoKind  = "bench-echo"
)

var bg = context.Background()

func noop(*core.MeetContext, *folder.Briefcase) error { return nil }

func echo(_ vnet.SiteID, _ string, payload []byte) ([]byte, error) { return payload, nil }

// newLocalSite returns a site on a private simulated network. The probe
// sites are made this way, so that probing never moves the counters of the
// sites the ops run on.
func newLocalSite(name string, cfg core.SiteConfig) *core.Site {
	s := core.NewSite(vnet.NewNetwork().AddNode(vnet.SiteID(name)), cfg)
	s.Register(noopAgent, core.AgentFunc(noop))
	return s
}

// codecProbe is the two ends of one link's delta codec: what a remote meet
// does to a briefcase on the way out and on the way in.
type codecProbe struct{ send, recv *folder.DeltaCache }

func newCodecProbes(n int) []codecProbe {
	out := make([]codecProbe, n)
	for i := range out {
		out[i] = codecProbe{folder.NewDeltaCache(0), folder.NewDeltaCache(0)}
	}
	return out
}

// roundTrip encodes bc against the sender's cache and decodes it against
// the receiver's, and returns the frame size.
func (p codecProbe) roundTrip(bc *folder.Briefcase) int {
	buf := folder.AppendBriefcaseDelta(folder.GetBuffer(), bc, p.send, p.send.Get, nil, nil)
	// A ref the receiving cache has evicted comes back as missing; on the
	// wire that is a miss reply, which the counters report.
	_, _, _ = folder.DecodeBriefcaseDelta(buf, p.recv.Get, func(h folder.Hash, enc []byte) {
		p.recv.PutCopy(h, enc)
	})
	n := len(buf)
	folder.PutBuffer(buf)
	return n
}

// storeProbe is a log of the probes' own, in its own directory: what one
// op journals is recorded and committed there, beside the log the ops use.
type storeProbe struct {
	dir  string
	wal  *store.WAL
	base int64
}

func newStoreProbe(workdir string) (*storeProbe, error) {
	dir, err := os.MkdirTemp(workdir, "probe-wal-")
	if err != nil {
		return nil, err
	}
	// No compaction: the log's growth is what bytes reports.
	wal, err := store.Open(dir, folder.NewCabinet(), store.Options{CompactMinBytes: 1 << 62})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &storeProbe{dir: dir, wal: wal, base: wal.Tail().Size}, nil
}

// bytes is how much the probe log has grown.
func (p *storeProbe) bytes() int64 { return p.wal.Tail().Size - p.base }

func (p *storeProbe) close() {
	p.wal.Close()
	os.RemoveAll(p.dir)
}

// reopened closes wal, recovers its directory into a fresh cabinet, and
// hands that cabinet to check: what an acknowledged op wrote must be there.
func reopened(wal *store.WAL, dir string, check func(cab *folder.FileCabinet) error) error {
	if err := wal.Close(); err != nil {
		return fmt.Errorf("close log: %w", err)
	}
	cab := folder.NewCabinet()
	again, err := store.Open(dir, cab, store.Options{NoSync: true})
	if err != nil {
		return fmt.Errorf("recover log: %w", err)
	}
	defer again.Close()
	return check(cab)
}
