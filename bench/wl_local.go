package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/store"
)

// The two workloads that stay inside one site and isolate one layer each:
// `script` is the TacL VM with nothing around it, `durable` is the
// write-ahead log and the cabinet with no script and no network.

// --- script ---

const (
	computeRounds  = 64
	computeModulus = 65521
)

// script: a local meet of ag_tacl running testdata/compute.tacl.
type script struct {
	e         env
	site      *core.Site
	probeSite *core.Site
}

func (w *script) setup(e env) error {
	w.e = e
	w.site = newLocalSite("script", core.SiteConfig{Seed: e.seed})
	w.probeSite = newLocalSite("script-probe", core.SiteConfig{Seed: e.seed})
	return nil
}

// agent builds the briefcase of op i and the OUT folder the script must
// leave in it.
func (w *script) agent(c int, i int64) (*folder.Briefcase, []string) {
	s := opStream(w.e.seed, tagScript, c, i)
	arg := s.intn(computeModulus)
	acc := arg
	for k := 0; k < computeRounds; k++ {
		acc = (acc*31 + k) % computeModulus
	}
	bc := folder.NewBriefcase()
	bc.PutString("ARG", strconv.Itoa(arg))
	bc.Ensure(folder.CodeFolder).PushString(computeSrc)
	return bc, []string{strconv.Itoa(acc), strconv.Itoa(computeRounds)}
}

func (w *script) op(c int, i int64) error {
	bc, want := w.agent(c, i)
	if err := w.site.MeetClient(bg, core.AgTacl, bc); err != nil {
		return err
	}
	out, err := bc.Folder("OUT")
	if err != nil {
		return err
	}
	if got := out.Strings(); !slices.Equal(got, want) {
		return fmt.Errorf("OUT is %v, want %v", got, want)
	}
	return nil
}

func (w *script) finish() error { return nil }

func (w *script) teardown() {}

func (w *script) probe(tr *tracer, c int, parent int64, i int64) {
	bc, _ := w.agent(c, i)
	tr.probe(c, parent, spanEval, func() { _ = w.probeSite.MeetClient(bg, core.AgTacl, bc) })
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, bc) })
}

func (w *script) counters() counters { return siteCounters(w.site) }

func (w *script) attribute(p probeStats, per counters) map[string]float64 {
	m := map[string]float64{
		spanEval + "_us":     evalOnly(p.unit, 1),
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
	}
	return m
}

// --- durable ---

const (
	durableBatch    = 8
	durableElemSize = 64
	// mailboxLimit is the length past which a delivery drains the mailbox
	// by as many elements as it appended.
	mailboxLimit = 1024
	// prefillRecords is the length of the log the measured site recovers
	// from, so that setup_s prices a real replay.
	prefillRecords = 64 << 10
)

func mailbox(client int) string { return "MBOX:c" + strconv.Itoa(client) }

// journal is what deliver and its probes mutate: a cabinet, or a log taken
// alone.
type journal interface {
	Append(name string, e []byte)
	TestAndAppendString(name, s string) bool
	Dequeue(name string) ([]byte, error)
	FolderLen(name string) int
}

// deliver is the delivery every durable op makes: append the batch to the
// mailbox, record the request, and drain the mailbox past its limit.
func deliver(j journal, mbox, req string, work *folder.Folder) error {
	for k := 0; k < work.Len(); k++ {
		j.Append(mbox, work.RawAt(k))
	}
	j.TestAndAppendString("SEEN", req)
	if j.FolderLen(mbox) > mailboxLimit {
		for k := 0; k < work.Len(); k++ {
			if _, err := j.Dequeue(mbox); err != nil {
				return err
			}
		}
	}
	return nil
}

// logOnly records deliver's mutations in a log without a cabinet under it;
// the probe log of store.commit is driven through it.
type logOnly struct{ wal *store.WAL }

func (l logOnly) Append(name string, e []byte) { l.wal.RecordAppend(name, e) }
func (l logOnly) TestAndAppendString(name, s string) bool {
	l.wal.RecordAppend(name, []byte(s))
	return true
}
func (l logOnly) Dequeue(name string) ([]byte, error) { l.wal.RecordDequeue(name); return nil, nil }

// FolderLen reports a full folder, so that the drain is always recorded: the
// measured mailboxes are full from the first op on.
func (l logOnly) FolderLen(string) int { return mailboxLimit + 1 }

// durable: a delivery meet at a site whose cabinet is write-ahead logged,
// one group-committed fdatasync barrier per meet.
type durable struct {
	e         env
	dir       string
	wal       *store.WAL
	site      *core.Site
	probeSite *core.Site
	probeCab  *folder.FileCabinet
	sp        *storeProbe
	// acked[c] is how many ops of client c were acknowledged; failed ops
	// are listed so that finish does not look for them.
	acked  []int64
	failed []map[int64]bool
}

func durableReq(c int, i int64) string { return "c" + strconv.Itoa(c) + "-" + strconv.FormatInt(i, 10) }

// prefill writes a log of prefillRecords records without syncing or
// compacting: both mailboxes filled to their limit, then churned.
func (w *durable) prefill() error {
	cab := folder.NewCabinet()
	wal, err := store.Open(w.dir, cab, store.Options{NoSync: true, CompactMinBytes: 1 << 62})
	if err != nil {
		return err
	}
	s := opStream(w.e.seed, tagDurable, -1, 0)
	elem := s.bytes(durableElemSize)
	records := 0
	for c := 0; c < w.e.clients; c++ {
		for k := 0; k < mailboxLimit; k++ {
			cab.Append(mailbox(c), elem)
			records++
		}
	}
	for c := 0; records < prefillRecords; c = (c + 1) % w.e.clients {
		cab.Append(mailbox(c), elem)
		if _, err := cab.Dequeue(mailbox(c)); err != nil {
			wal.Close()
			return err
		}
		records += 2
	}
	return wal.Close()
}

func (w *durable) setup(e env) error {
	w.e = e
	dir, err := os.MkdirTemp(e.workdir, "durable-")
	if err != nil {
		return err
	}
	w.dir = dir
	if err := w.prefill(); err != nil {
		return err
	}
	cab := folder.NewCabinet()
	if w.wal, err = store.Open(dir, cab, store.Options{}); err != nil {
		return err
	}
	w.site = newLocalSite("durable", core.SiteConfig{Cabinet: cab, Durable: w.wal})
	w.site.Register("deliver", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		req, err := bc.GetString("REQ")
		if err != nil {
			return err
		}
		client, err := bc.GetString("CLIENT")
		if err != nil {
			return err
		}
		work, err := bc.Folder("WORK")
		if err != nil {
			return err
		}
		if err := deliver(mc.Site.Cabinet(), client, req, work); err != nil {
			return err
		}
		bc.PutString("ACK", req)
		return nil
	}))
	if w.sp, err = newStoreProbe(e.workdir); err != nil {
		return err
	}
	w.probeSite = newLocalSite("durable-probe", core.SiteConfig{Durable: w.sp.wal})
	w.probeCab = folder.NewCabinet()
	elem := make([]byte, durableElemSize)
	for c := 0; c < e.clients; c++ {
		for k := 0; k < mailboxLimit; k++ {
			w.probeCab.Append(mailbox(c), elem)
		}
	}
	w.acked = make([]int64, e.clients)
	w.failed = make([]map[int64]bool, e.clients)
	for c := range w.failed {
		w.failed[c] = make(map[int64]bool)
	}
	return nil
}

// delivery builds the briefcase of op i.
func (w *durable) delivery(c int, i int64) (*folder.Briefcase, string) {
	s := opStream(w.e.seed, tagDurable, c, i)
	work := folder.New()
	for k := 0; k < durableBatch; k++ {
		work.PushOwned(s.bytes(durableElemSize))
	}
	req := durableReq(c, i)
	bc := folder.NewBriefcase()
	bc.PutString("CLIENT", mailbox(c))
	bc.PutString("REQ", req)
	bc.Put("WORK", work)
	return bc, req
}

func (w *durable) op(c int, i int64) error {
	bc, req := w.delivery(c, i)
	err := w.site.MeetClient(bg, "deliver", bc)
	if err == nil {
		if ack, _ := bc.GetString("ACK"); ack != req {
			err = fmt.Errorf("ACK is %q, want %q", ack, req)
		}
	}
	// Ops of one client run in order, so i+1 ops have now been tried.
	w.acked[c] = i + 1
	if err != nil {
		w.failed[c][i] = true
	}
	return err
}

// finish recovers the log into a fresh cabinet and looks for the request
// of every acknowledged op.
func (w *durable) finish() error {
	return reopened(w.wal, w.dir, func(cab *folder.FileCabinet) error {
		for c, n := range w.acked {
			for i := int64(0); i < n; i++ {
				if !w.failed[c][i] && !cab.ContainsString("SEEN", durableReq(c, i)) {
					return fmt.Errorf("acknowledged request %s is not in SEEN after recovery", durableReq(c, i))
				}
			}
		}
		return nil
	})
}

func (w *durable) teardown() {
	if w.wal != nil {
		w.wal.Close()
	}
	if w.sp != nil {
		w.sp.close()
	}
	os.RemoveAll(w.dir)
}

func (w *durable) probe(tr *tracer, c int, parent int64, i int64) {
	bc, req := w.delivery(c, i)
	work := bc.Lookup("WORK")
	tr.probe(c, parent, spanCabinet, func() { _ = deliver(w.probeCab, mailbox(c), req, work) })
	tr.probe(c, parent, spanCommit, func() {
		_ = deliver(logOnly{w.sp.wal}, mailbox(c), req, work)
		_ = w.sp.wal.Sync()
	})
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, bc) })
}

func (w *durable) counters() counters {
	c := siteCounters(w.site)
	c.addStore(w.wal)
	return c
}

func (w *durable) attribute(p probeStats, per counters) map[string]float64 {
	m := map[string]float64{
		spanCabinet + "_us":  p.unit[spanCabinet],
		spanCommit + "_us":   p.unit[spanCommit],
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
	}
	per.storeMetrics(m, w.sp, p.count[spanCommit])
	return m
}
