package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/stormcast"
	"repro/internal/vnet"
)

// The two workloads shaped like the paper's long-lived applications:
// `resident` is a site full of parked agents woken by deliveries, the only
// workload where the scheduler matters; `stormcast` is the paper's own
// application, where every layer does a little and none dominates.

// --- resident ---

const (
	residentPopulation = 10000
	residentHotSet     = 1000
	residentWorkSize   = 64
	// residentTimeout bounds the wait for a woken resident; a longer wait
	// counts the op as failed.
	residentTimeout = 2 * time.Second
)

func residentName(k int) string { return fmt.Sprintf("res-%05d", k) }

// ackMsg is what the ack agent tells the waiting client: which op a
// resident handed it, and whether the work arrived intact.
type ackMsg struct {
	op int64
	ok bool
}

// echoResumer is the parked entry the sched.wake probe wakes: on resume it
// parks again and tells the prober.
type echoResumer struct {
	sch  *sched.Scheduler
	done chan struct{}
}

func (r *echoResumer) Resume(key string) {
	r.sch.Park(key, "", r)
	r.done <- struct{}{}
}

type idleResumer struct{}

func (idleResumer) Resume(string) {}

// resident: 10 000 TacL residents parked at one site; an op delivers a work
// briefcase to one of a hot set of 1 000 and ends when the woken resident
// has drained its pending folder, met the ack agent and parked again.
type resident struct {
	e     env
	site  *core.Site
	hot   []string
	acks  []chan ackMsg
	timer []*time.Timer

	probeSite  *core.Site
	probeCab   *folder.FileCabinet
	probeSched *sched.Scheduler
	wakers     []*echoResumer
	contEnc    []byte // one resident's stored continuation
}

// ack is the agent a woken resident meets with the deliveries it drained.
// Every INBOX element is one delivered briefcase, still encoded.
func (w *resident) ack(_ *core.MeetContext, bc *folder.Briefcase) error {
	inbox, err := bc.Folder("INBOX")
	if err != nil {
		return err
	}
	for k := 0; k < inbox.Len(); k++ {
		work, err := folder.DecodeBriefcase(inbox.RawAt(k))
		if err != nil {
			return fmt.Errorf("ack: delivery %d: %w", k, err)
		}
		req := work.Lookup("REQ")
		if req == nil || len(req.RawAt(0)) != 12 {
			return fmt.Errorf("ack: delivery %d has no REQ", k)
		}
		client := int(binary.LittleEndian.Uint32(req.RawAt(0)))
		op := int64(binary.LittleEndian.Uint64(req.RawAt(0)[4:]))
		if client >= len(w.acks) {
			continue // a probe's delivery: nobody waits for it
		}
		ok := false
		if body, sum := work.Lookup("WORK"), work.Lookup("SUM"); body != nil && sum != nil && len(sum.RawAt(0)) == 4 {
			ok = crc(0, body.RawAt(0)) == binary.LittleEndian.Uint32(sum.RawAt(0))
		}
		select {
		case w.acks[client] <- ackMsg{op, ok}:
		default: // the client gave up long ago and its channel is full
		}
	}
	bc.Delete("INBOX")
	return nil
}

// population parks n residents at s.
func population(s *core.Site, names []string) error {
	for _, name := range names {
		bc := folder.NewBriefcase()
		bc.PutString("NAME", name)
		if _, err := core.RunScript(bg, s, residentSrc, bc); err != nil {
			return fmt.Errorf("parking %s: %w", name, err)
		}
	}
	if got := s.ParkedCount(); got != len(names) {
		return fmt.Errorf("%d residents parked, want %d", got, len(names))
	}
	return nil
}

func (w *resident) setup(e env) error {
	w.e = e
	w.site = newLocalSite("residence", core.SiteConfig{Seed: e.seed})
	w.site.Register("ack", core.AgentFunc(w.ack))
	names := make([]string, residentPopulation)
	for k := range names {
		names[k] = residentName(k)
	}
	if err := population(w.site, names); err != nil {
		return err
	}
	// The hot set is a seeded sample of the population.
	s := opStream(e.seed, tagHotSet, 0, 0)
	perm := make([]int, residentPopulation)
	for k := range perm {
		perm[k] = k
	}
	w.hot = make([]string, residentHotSet)
	for k := range w.hot {
		j := k + s.intn(len(perm)-k)
		perm[k], perm[j] = perm[j], perm[k]
		w.hot[k] = names[perm[k]]
	}
	w.acks = make([]chan ackMsg, e.clients)
	w.timer = make([]*time.Timer, e.clients)
	for c := range w.acks {
		// One op is outstanding per client; the slack absorbs acks that
		// arrive after their op timed out.
		w.acks[c] = make(chan ackMsg, 8)
		w.timer[c] = time.NewTimer(time.Hour)
	}

	// The probes' own site, cabinet and scheduler, so that probing moves
	// none of the measured site's counters. The probe scheduler carries a
	// population of the same size.
	w.probeSite = newLocalSite("residence-probe", core.SiteConfig{Seed: e.seed})
	w.probeSite.Register("ack", core.AgentFunc(w.ack))
	probeNames := make([]string, e.clients)
	for c := range probeNames {
		probeNames[c] = "probe-" + strconv.Itoa(c)
	}
	if err := population(w.probeSite, probeNames); err != nil {
		return err
	}
	cont := w.site.Cabinet().Snapshot(core.ParkedFolder(w.hot[0]))
	enc, err := cont.At(2)
	if err != nil {
		return fmt.Errorf("resident %s has no continuation: %w", w.hot[0], err)
	}
	w.contEnc = enc
	w.probeCab = folder.NewCabinet()
	w.probeCab.Put(core.ParkedFolder("probe"), cont)
	w.probeSched = sched.New(0)
	for _, name := range names {
		w.probeSched.Park(name, "", idleResumer{})
	}
	w.wakers = make([]*echoResumer, e.clients)
	for c := range w.wakers {
		w.wakers[c] = &echoResumer{sch: w.probeSched, done: make(chan struct{}, 1)}
		w.probeSched.Park(probeNames[c], "", w.wakers[c])
	}
	return nil
}

// work builds the briefcase of op i and names the resident it is for.
func (w *resident) work(c int, i int64) (*folder.Briefcase, string) {
	s := opStream(w.e.seed, tagResident, c, i)
	// Each client draws from its own share of the hot set, so a resident
	// never has two ops outstanding.
	name := w.hot[s.intn(len(w.hot)/w.e.clients)*w.e.clients+c]
	body := s.bytes(residentWorkSize)
	var req [12]byte
	binary.LittleEndian.PutUint32(req[:], uint32(c))
	binary.LittleEndian.PutUint64(req[4:], uint64(i))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc(0, body))
	bc := folder.NewBriefcase()
	bc.Put("REQ", folder.Of(req[:]))
	bc.Put("SUM", folder.Of(sum[:]))
	f := folder.New()
	f.PushOwned(body)
	bc.Put("WORK", f)
	return bc, name
}

func (w *resident) op(c int, i int64) error {
	bc, name := w.work(c, i)
	if err := w.site.Meet(bg, name, bc); err != nil {
		return err
	}
	w.timer[c].Reset(residentTimeout)
	for {
		select {
		case m := <-w.acks[c]:
			if m.op != i {
				continue // the late ack of an op that timed out
			}
			if !m.ok {
				return fmt.Errorf("%s received damaged work", name)
			}
			// The ack comes from inside the resumed script; the op ends when
			// the script has parked again, a few microseconds later.
			for !w.site.IsParked(name) {
				runtime.Gosched()
				select {
				case <-w.timer[c].C:
					return fmt.Errorf("%s did not park again within %v", name, residentTimeout)
				default:
				}
			}
			return nil
		case <-w.timer[c].C:
			return fmt.Errorf("%s did not acknowledge within %v", name, residentTimeout)
		}
	}
}

// finish checks that the population is whole: every resident parked again.
func (w *resident) finish() error {
	w.site.Wait()
	if got := w.site.ParkedCount(); got != residentPopulation {
		return fmt.Errorf("%d residents are parked after the run, want %d", got, residentPopulation)
	}
	return nil
}

func (w *resident) teardown() {
	w.site.Wait()
	w.probeSite.Wait()
	w.probeSched.Quiesce()
	for _, t := range w.timer {
		t.Stop()
	}
}

func (w *resident) probe(tr *tracer, c int, parent int64, i int64) {
	bc, _ := w.work(c, i)
	// The codec work outside the script: the delivery is encoded into the
	// pending folder and the continuation is decoded to resume.
	var enc []byte
	tr.probe(c, parent, spanCodec, func() {
		enc = folder.EncodeBriefcase(bc)
		_, _ = folder.DecodeBriefcase(w.contEnc)
	})
	// The cabinet work outside the script: the pending append, and the two
	// reads of the continuation around the resume.
	tr.probe(c, parent, spanCabinet, func() {
		w.probeCab.Append(core.PendingFolder("probe"), enc)
		w.probeCab.Snapshot(core.ParkedFolder("probe"))
		w.probeCab.Snapshot(core.ParkedFolder("probe"))
	})
	_, _ = w.probeCab.Dequeue(core.PendingFolder("probe"))
	name := "probe-" + strconv.Itoa(c)
	tr.probe(c, parent, spanWake, func() {
		w.probeSched.Wake(name)
		<-w.wakers[c].done
	})
	// The resumed script, run on this goroutine: a delivery is put in the
	// probe resident's pending folder by hand, so nothing is woken.
	probeReq(bc, len(w.acks))
	w.probeSite.Cabinet().Append(core.PendingFolder(name), folder.EncodeBriefcase(bc))
	stored, err := w.probeSite.Cabinet().Snapshot(core.ParkedFolder(name)).At(2)
	if err != nil {
		return
	}
	cont, err := folder.DecodeBriefcase(stored)
	if err != nil {
		return
	}
	tr.probe(c, parent, spanEval, func() { _ = w.probeSite.MeetClient(bg, core.AgTacl, cont) })
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, bc) })
}

// probeReq marks a delivery as a probe's: its client number is one no
// client has, so the ack agent tells nobody.
func probeReq(bc *folder.Briefcase, clients int) {
	var req [12]byte
	binary.LittleEndian.PutUint32(req[:], uint32(clients))
	bc.Put("REQ", folder.Of(req[:]))
}

func (w *resident) counters() counters { return siteCounters(w.site) }

func (w *resident) attribute(p probeStats, per counters) map[string]float64 {
	m := map[string]float64{
		spanCodec + "_us":    p.unit[spanCodec],
		spanCabinet + "_us":  p.unit[spanCabinet],
		spanWake + "_us":     p.unit[spanWake],
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
		// The probe dispatches ag_tacl and, from the script, ack. What is
		// left includes the host commands the script calls: the pending
		// dequeue and the park, which encodes and stores the continuation.
		spanEval + "_us": evalOnly(p.unit, 2),
		mSteals:          per.Steals,
	}
	return m
}

// --- stormcast ---

const (
	stormGrid   = 3
	stormWindow = 6
	stormSteps  = 24 // forecasts are asked for t in [0, stormSteps)
	// stormCheckEvery is how often an op also runs the centralized forecast
	// and compares; every op is compared with the centralized forecast of
	// its t that setup computed.
	stormCheckEvery = 64
	forecastLimit   = 1024
	// stormMinAccuracy is the share of forecasts that must agree with the
	// weather model's ground truth.
	stormMinAccuracy = 0.75
)

// stormcastRun: the paper's application. An op is one roaming forecast over
// a 3×3 sensor field on the simulated network, recorded by a durable meet
// in the home site's write-ahead-logged cabinet.
type stormcastRun struct {
	e       env
	f       *stormcast.Field
	expert  stormcast.Expert
	dir     string
	wal     *store.WAL
	central [stormSteps]stormcast.Forecast
	// Per client: forecasts made, forecasts that matched the ground truth,
	// and the last request recorded.
	made, hit []int64
	last      []string

	probeSite *core.Site
	probeCab  *folder.FileCabinet
	sp        *storeProbe
	codec     []codecProbe
	frame     []byte
}

func sameForecast(a, b stormcast.Forecast) bool {
	x, y := append([]string(nil), a.Stormy...), append([]string(nil), b.Stormy...)
	slices.Sort(x)
	slices.Sort(y)
	return a.T == b.T && a.Storm == b.Storm && slices.Equal(x, y)
}

// record is the home site's agent that files a forecast: append it, and
// drop the oldest once the folder is past its limit.
func record(j journal, entry string) error {
	j.Append("FORECASTS", []byte(entry))
	if j.FolderLen("FORECASTS") > forecastLimit {
		if _, err := j.Dequeue("FORECASTS"); err != nil {
			return err
		}
	}
	return nil
}

func (w *stormcastRun) setup(e env) error {
	w.e = e
	w.f = stormcast.NewField(stormGrid, stormGrid, e.seed, core.SystemConfig{})
	w.expert = stormcast.DefaultExpert()
	dir, err := os.MkdirTemp(e.workdir, "stormcast-")
	if err != nil {
		return err
	}
	w.dir = dir
	home := w.f.Home
	if w.wal, err = store.Open(dir, home.Cabinet(), store.Options{}); err != nil {
		return err
	}
	home.SetDurable(w.wal)
	home.Register("record", core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
		entry, err := bc.GetString("FORECAST")
		if err != nil {
			return err
		}
		if err := record(mc.Site.Cabinet(), entry); err != nil {
			return err
		}
		bc.PutString("ACK", entry)
		return nil
	}))
	for t := range w.central {
		if w.central[t], err = stormcast.CentralForecast(bg, home, w.f.Sites, t, stormWindow, w.expert); err != nil {
			return err
		}
	}
	w.made = make([]int64, e.clients)
	w.hit = make([]int64, e.clients)
	w.last = make([]string, e.clients)

	w.f.Sys.Site(w.f.Sites[0]).HandleKind(echoKind, echo)
	w.probeSite = newLocalSite("storm-probe", core.SiteConfig{})
	stormcast.InstallSensor(w.probeSite, w.f.Model, 0, 0)
	if w.sp, err = newStoreProbe(e.workdir); err != nil {
		return err
	}
	w.probeCab = folder.NewCabinet()
	for k := 0; k < forecastLimit; k++ {
		w.probeCab.AppendString("FORECASTS", "fill")
	}
	w.codec = newCodecProbes(e.clients)
	w.frame = make([]byte, 1<<16)
	return nil
}

func forecastEntry(c int, i int64, fc stormcast.Forecast) string {
	return "c" + strconv.Itoa(c) + "-" + strconv.FormatInt(i, 10) + "," +
		strconv.Itoa(fc.T) + "," + strconv.FormatBool(fc.Storm)
}

func (w *stormcastRun) op(c int, i int64) error {
	s := opStream(w.e.seed, tagStormcast, c, i)
	t := s.intn(stormSteps)
	home := w.f.Home
	fc, err := stormcast.RoamingForecast(bg, home, w.f.Sites, t, stormWindow, w.expert)
	if err != nil {
		return err
	}
	if !sameForecast(fc, w.central[t]) {
		return fmt.Errorf("roaming forecast for t=%d is %+v, the centralized one %+v", t, fc, w.central[t])
	}
	if i%stormCheckEvery == 0 {
		live, err := stormcast.CentralForecast(bg, home, w.f.Sites, t, stormWindow, w.expert)
		if err != nil {
			return err
		}
		if !sameForecast(fc, live) {
			return fmt.Errorf("roaming forecast for t=%d is %+v, a fresh centralized one %+v", t, fc, live)
		}
	}
	entry := forecastEntry(c, i, fc)
	bc := folder.NewBriefcase()
	bc.PutString("FORECAST", entry)
	if err := home.MeetClient(bg, "record", bc); err != nil {
		return err
	}
	if ack, _ := bc.GetString("ACK"); ack != entry {
		return fmt.Errorf("ACK is %q, want %q", ack, entry)
	}
	w.made[c]++
	if fc.Storm == w.f.Model.StormInWindow(t, stormWindow) {
		w.hit[c]++
	}
	w.last[c] = entry
	return nil
}

// finish scores the forecasts against the weather model, and recovers the
// home site's log to look for the last forecast each client recorded.
func (w *stormcastRun) finish() error {
	var made, hit int64
	for c := range w.made {
		made += w.made[c]
		hit += w.hit[c]
	}
	if made > 0 {
		if acc := float64(hit) / float64(made); acc < stormMinAccuracy {
			return fmt.Errorf("forecast accuracy is %.3f over %d forecasts, want at least %.2f", acc, made, stormMinAccuracy)
		}
	}
	return reopened(w.wal, w.dir, func(cab *folder.FileCabinet) error {
		for c, entry := range w.last {
			if entry != "" && !cab.ContainsString("FORECASTS", entry) {
				return fmt.Errorf("client %d's last forecast %q is not in FORECASTS after recovery", c, entry)
			}
		}
		return nil
	})
}

func (w *stormcastRun) teardown() {
	if w.f != nil {
		w.f.Sys.Wait()
	}
	if w.wal != nil {
		w.wal.Close()
	}
	if w.sp != nil {
		w.sp.close()
	}
	os.RemoveAll(w.dir)
}

// collector builds the collector agent's briefcase as it leaves a station
// with the given number of summaries gathered and stations still to visit.
func (w *stormcastRun) collector(t, gathered int, ahead []vnet.SiteID) *folder.Briefcase {
	bc := folder.NewBriefcase()
	bc.PutString(stormcast.OpFolder, "summary")
	bc.PutString(stormcast.TimeFolder, strconv.Itoa(t))
	bc.PutString(stormcast.WindowFolder, strconv.Itoa(stormWindow))
	itin := folder.New()
	for _, s := range ahead {
		itin.PushString(string(s))
	}
	bc.Put("ITIN", itin)
	sum := folder.New()
	for k := 0; k < gathered; k++ {
		obs := w.f.Model.Observe(string(w.f.Sites[k]), k%stormGrid, k/stormGrid, t)
		sum.PushString(stormcast.Summarize(obs.Site, obs.X, obs.Y, []stormcast.Observation{obs}).Encode())
	}
	if gathered > 0 {
		bc.Put(stormcast.SummaryFolder, sum)
	}
	bc.Ensure(folder.CodeFolder).PushString(collectorSrc)
	return bc
}

func (w *stormcastRun) probe(tr *tracer, c int, parent int64, i int64) {
	s := opStream(w.e.seed, tagStormcast, c, i)
	t := s.intn(stormSteps)
	half := len(w.f.Sites) / 2
	mid := w.collector(t, half, w.f.Sites[half+1:])
	var n int
	tr.probe(c, parent, spanCodec, func() { n = w.codec[c].roundTrip(mid) })
	tr.probe(c, parent, spanCall, func() {
		_, _ = w.f.Home.Endpoint().Call(bg, w.f.Sites[0], echoKind, w.frame[:n])
	})
	// One round of the weather model: every sensor's window and summary,
	// and the expert's rules over the summaries.
	tr.probe(c, parent, spanModel, func() {
		sums := make([]stormcast.Summary, 0, len(w.f.Sites))
		for k, site := range w.f.Sites {
			x, y := k%stormGrid, k/stormGrid
			win := make([]stormcast.Observation, 0, stormWindow)
			for u := t - stormWindow + 1; u <= t; u++ {
				if u >= 0 {
					win = append(win, w.f.Model.Observe(string(site), x, y, u))
				}
			}
			sums = append(sums, stormcast.Summarize(string(site), x, y, win))
		}
		w.expert.Predict(t, sums)
	})
	// One station's activation: with ITIN empty the collector does not jump.
	station := w.collector(t, half, nil)
	tr.probe(c, parent, spanEval, func() { _ = w.probeSite.MeetClient(bg, core.AgTacl, station) })
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, station) })
	entry := forecastEntry(c, i, w.central[t])
	tr.probe(c, parent, spanCabinet, func() { _ = record(w.probeCab, entry) })
	tr.probe(c, parent, spanCommit, func() {
		_ = record(logOnly{w.sp.wal}, entry)
		_ = w.sp.wal.Sync()
	})
}

func (w *stormcastRun) counters() counters {
	var sites []*core.Site
	for _, id := range w.f.Sys.Names() {
		sites = append(sites, w.f.Sys.Site(id))
	}
	c := siteCounters(sites...)
	c.addStore(w.wal)
	return c
}

func (w *stormcastRun) attribute(p probeStats, per counters) map[string]float64 {
	stations := float64(len(w.f.Sites))
	m := map[string]float64{
		spanCodec + "_us":    p.unit[spanCodec] * 2 * per.RemoteMeets,
		spanCall + "_us":     p.unit[spanCall] * per.RemoteMeets,
		spanModel + "_us":    p.unit[spanModel],
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
		spanCabinet + "_us":  p.unit[spanCabinet],
		spanCommit + "_us":   p.unit[spanCommit],
		// The probe dispatches ag_tacl and, from the script, the sensor,
		// which does one station's share of the model.
		spanEval + "_us": max(0, evalOnly(p.unit, 2)-p.unit[spanModel]/stations) * stations,
	}
	per.storeMetrics(m, w.sp, p.count[spanCommit])
	return m
}
