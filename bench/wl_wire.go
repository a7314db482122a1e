package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
	"repro/internal/vnet"
)

// The two workloads that cross TCP loopback. They use the same transport,
// wire protocol and codec in opposite ways: `itinerary` ships the same CODE
// and SIG folders on every hop, so nearly every delta-eligible folder goes
// as a 32-byte reference; `courier` ships fresh bytes both ways, so every
// one goes in full and is hashed and cached for nothing.

// tcpSites starts one TCP endpoint and site per name, every site a peer of
// every other.
func tcpSites(names ...string) ([]*vnet.TCPEndpoint, []*core.Site, error) {
	var eps []*vnet.TCPEndpoint
	for _, name := range names {
		ep, err := vnet.NewTCPEndpoint(vnet.SiteID(name), "127.0.0.1:0")
		if err != nil {
			closeEndpoints(eps)
			return nil, nil, err
		}
		eps = append(eps, ep)
	}
	sites := make([]*core.Site, len(eps))
	for i, ep := range eps {
		for j, other := range eps {
			if i != j {
				ep.AddPeer(other.ID(), other.Addr())
			}
		}
		sites[i] = core.NewSite(ep, core.SiteConfig{Seed: int64(i + 1)})
	}
	return eps, sites, nil
}

func closeEndpoints(eps []*vnet.TCPEndpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// --- itinerary ---

const itinerant = "itinerant" // the principal that signs the agent

var (
	itineraryHops  = []string{"hop-1", "hop-2", "hop-3"}
	itineraryTrail = []string{"hop-0", "hop-1", "hop-2", "hop-3", "done"}
)

// itinerary: a signed TacL agent launched at hop-0 visits hop-1, hop-2 and
// hop-3 over TCP with a 64-byte payload. Every site is a firewall that
// verifies the signature on arrival.
type itinerary struct {
	e         env
	eps       []*vnet.TCPEndpoint
	sites     []*core.Site
	keys      *guard.Keyring
	probeSite *core.Site
	codec     []codecProbe
	frame     []byte
}

func (w *itinerary) setup(e env) error {
	w.e = e
	eps, sites, err := tcpSites("hop-0", "hop-1", "hop-2", "hop-3")
	if err != nil {
		return err
	}
	w.eps, w.sites = eps, sites
	w.keys = guard.NewKeyring()
	w.keys.Enroll(itinerant)
	policy := guard.NewPolicy()
	policy.Grant(itinerant, guard.Capability{})
	policy.SetFirewall(true)
	// Every site, the probes' too, is a firewall that admits only the
	// itinerant principal.
	w.probeSite = newLocalSite("hop-probe", core.SiteConfig{})
	for _, s := range append(sites[:len(sites):len(sites)], w.probeSite) {
		guard.Install(s, guard.New(policy, w.keys))
	}
	sites[1].HandleKind(echoKind, echo)
	w.codec = newCodecProbes(e.clients)
	w.frame = make([]byte, 1<<16)
	return nil
}

// agent builds the signed briefcase of op i: the script, the stations
// still to visit, and the payload.
func (w *itinerary) agent(c int, i int64, hops []string) (*folder.Briefcase, []byte, error) {
	s := opStream(w.e.seed, tagItinerary, c, i)
	payload := s.bytes(64)
	bc, err := guard.SignedScript(w.keys, itinerant, "", itinerarySrc, nil)
	if err != nil {
		return nil, nil, err
	}
	bc.Put("HOPS", folder.OfStrings(hops...))
	f := folder.New()
	f.PushOwned(payload)
	bc.Put("PAYLOAD", f)
	return bc, payload, nil
}

func (w *itinerary) op(c int, i int64) error {
	bc, payload, err := w.agent(c, i, itineraryHops)
	if err != nil {
		return err
	}
	if err := guard.Launch(bg, w.sites[0], bc); err != nil {
		return err
	}
	trail, err := bc.Folder("TRAIL")
	if err != nil {
		return err
	}
	if got := trail.Strings(); !slices.Equal(got, itineraryTrail) {
		return fmt.Errorf("TRAIL is %v, want %v", got, itineraryTrail)
	}
	if p := bc.Lookup("PAYLOAD"); p == nil || !bytes.Equal(p.RawAt(0), payload) {
		return fmt.Errorf("PAYLOAD came home changed")
	}
	return nil
}

func (w *itinerary) finish() error { return nil }

func (w *itinerary) teardown() { closeEndpoints(w.eps) }

func (w *itinerary) probe(tr *tracer, c int, parent int64, i int64) {
	// The briefcase as it crosses the second link: CODE restored, two
	// stations in TRAIL, one left in HOPS.
	bc, _, err := w.agent(c, i, itineraryHops[2:])
	if err != nil {
		return
	}
	bc.Put("TRAIL", folder.OfStrings(itineraryTrail[:2]...))
	var n int
	tr.probe(c, parent, spanCodec, func() { n = w.codec[c].roundTrip(bc) })
	tr.probe(c, parent, spanCall, func() { _, _ = w.eps[0].Call(bg, "hop-1", echoKind, w.frame[:n]) })
	tr.probe(c, parent, spanVerify, func() { _, _ = guard.Verify(w.keys, bc) })
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, bc) })
	// One station's activation: with HOPS empty the script does not jump.
	last, _, err := w.agent(c, i, nil)
	if err != nil {
		return
	}
	tr.probe(c, parent, spanEval, func() { _ = guard.Launch(bg, w.probeSite, last) })
}

func (w *itinerary) counters() counters { return siteCounters(w.sites...) }

func (w *itinerary) attribute(p probeStats, per counters) map[string]float64 {
	calls := per.RemoteMeets
	m := map[string]float64{
		// Each remote meet encodes and decodes a request and a reply.
		spanCodec + "_us":    p.unit[spanCodec] * 2 * calls,
		spanCall + "_us":     p.unit[spanCall] * calls,
		spanVerify + "_us":   p.unit[spanVerify] * calls, // one arrival per call
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
		spanEval + "_us":     evalOnly(p.unit, 1) * float64(len(itineraryTrail)-1),
	}
	return m
}

// evalOnly is the time of one tacl.eval probe without the dispatches the
// probe went through.
func evalOnly(unit map[string]float64, dispatches float64) float64 {
	return max(0, unit[spanEval]-dispatches*unit[spanDispatch])
}

// --- courier ---

const (
	courierElems    = 8
	courierElemSize = 512
	courierReply    = 4096
)

// courier: one remote meet over TCP carrying eight fresh 512-byte elements
// to the depot agent, which consumes them and answers with a fresh 4 KiB
// receipt.
type courier struct {
	e         env
	eps       []*vnet.TCPEndpoint
	sites     []*core.Site
	probeSite *core.Site
	codec     []codecProbe
	frame     []byte
}

// receipt is the depot's answer to a parcel whose checksum is sum: the sum,
// bytes generated from it, and a checksum of both.
func receipt(sum uint32) []byte {
	out := make([]byte, courierReply)
	binary.LittleEndian.PutUint32(out, sum)
	s := stream(sum)
	s.fill(out[4 : courierReply-4])
	binary.LittleEndian.PutUint32(out[courierReply-4:], crc(0, out[:courierReply-4]))
	return out
}

func checkReceipt(sum uint32, got []byte) error {
	if len(got) != courierReply {
		return fmt.Errorf("receipt has %d bytes, want %d", len(got), courierReply)
	}
	if binary.LittleEndian.Uint32(got) != sum {
		return fmt.Errorf("receipt is for another parcel")
	}
	if binary.LittleEndian.Uint32(got[courierReply-4:]) != crc(0, got[:courierReply-4]) {
		return fmt.Errorf("receipt fails its checksum")
	}
	return nil
}

func depot(_ *core.MeetContext, bc *folder.Briefcase) error {
	work, err := bc.Folder("WORK")
	if err != nil {
		return err
	}
	var sum uint32
	for i := 0; i < work.Len(); i++ {
		sum = crc(sum, work.RawAt(i))
	}
	// The parcel is delivered: it does not travel back.
	bc.Delete("WORK")
	f := folder.New()
	f.PushOwned(receipt(sum))
	bc.Put(folder.ResultFolder, f)
	return nil
}

func (w *courier) setup(e env) error {
	w.e = e
	eps, sites, err := tcpSites("courier-a", "courier-b")
	if err != nil {
		return err
	}
	w.eps, w.sites = eps, sites
	sites[1].Register("depot", core.AgentFunc(depot))
	sites[1].HandleKind(echoKind, echo)
	w.probeSite = newLocalSite("courier-probe", core.SiteConfig{})
	w.codec = newCodecProbes(e.clients)
	w.frame = make([]byte, 1<<16)
	return nil
}

// parcel builds the briefcase of op i and returns the checksum of its work.
func (w *courier) parcel(c int, i int64) (*folder.Briefcase, uint32) {
	s := opStream(w.e.seed, tagCourier, c, i)
	work := folder.New()
	var sum uint32
	for k := 0; k < courierElems; k++ {
		e := s.bytes(courierElemSize)
		sum = crc(sum, e)
		work.PushOwned(e)
	}
	bc := folder.NewBriefcase()
	bc.Put("WORK", work)
	bc.PutString("REQ", strconv.Itoa(c)+"/"+strconv.FormatInt(i, 10))
	return bc, sum
}

func (w *courier) op(c int, i int64) error {
	bc, sum := w.parcel(c, i)
	if err := w.sites[0].RemoteMeet(bg, "courier-b", "depot", bc); err != nil {
		return err
	}
	res, err := bc.Folder(folder.ResultFolder)
	if err != nil {
		return err
	}
	if bc.Has("WORK") {
		return fmt.Errorf("the parcel came back")
	}
	return checkReceipt(sum, res.RawAt(0))
}

func (w *courier) finish() error { return nil }

func (w *courier) teardown() { closeEndpoints(w.eps) }

func (w *courier) probe(tr *tracer, c int, parent int64, i int64) {
	req, sum := w.parcel(c, i)
	reply := folder.NewBriefcase()
	reply.Put("REQ", req.Lookup("REQ"))
	f := folder.New()
	f.PushOwned(receipt(sum))
	reply.Put(folder.ResultFolder, f)
	var n int
	tr.probe(c, parent, spanCodec, func() { n = w.codec[c].roundTrip(req) })
	tr.probe(c, parent, spanCodec, func() { w.codec[c].roundTrip(reply) })
	tr.probe(c, parent, spanCall, func() { _, _ = w.eps[0].Call(bg, "courier-b", echoKind, w.frame[:n]) })
	tr.probe(c, parent, spanDispatch, func() { _ = w.probeSite.MeetClient(bg, noopAgent, req) })
}

func (w *courier) counters() counters { return siteCounters(w.sites...) }

func (w *courier) attribute(p probeStats, per counters) map[string]float64 {
	m := map[string]float64{
		// The mean is over the request's and the reply's round trip, and
		// each remote meet makes one of each.
		spanCodec + "_us":    p.unit[spanCodec] * 2 * per.RemoteMeets,
		spanCall + "_us":     p.unit[spanCall] * per.RemoteMeets,
		spanDispatch + "_us": p.unit[spanDispatch] * per.Activations,
	}
	return m
}
