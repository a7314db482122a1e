package core

import (
	"errors"
	"testing"

	"repro/internal/folder"
	"repro/internal/tacl"
	"repro/internal/vnet"
)

// onlyCount is a firewall admitting arrivals for the "count" agent alone,
// so fuzzed agent names cannot reach the system agents.
type onlyCount struct{}

func (onlyCount) CheckMeet(*MeetContext, string, *folder.Briefcase) error { return nil }
func (onlyCount) CheckArrival(origin, agent string, bc *folder.Briefcase) error {
	if agent != "count" {
		return errors.New("not count")
	}
	return nil
}
func (onlyCount) CheckCabinet(*MeetContext, *folder.Briefcase, string, bool) error { return nil }
func (onlyCount) CheckBriefcase(*MeetContext, *folder.Briefcase, string) error     { return nil }
func (onlyCount) StepHook(*MeetContext, *folder.Briefcase) func() error            { return nil }
func (onlyCount) Bind(*tacl.Interp, *MeetContext, *folder.Briefcase)               {}

// FuzzServeMeet2 feeds arbitrary bytes to the network-facing meet arrival
// path. Beyond never panicking: a miss reply or an error means the meet did
// not run and the claimed sender's peer cache is exactly as it was (refused
// and malformed arrivals must not pin bytes), and a briefcase reply means
// the meet ran once and every ref in it resolves for the caller.
func FuzzServeMeet2(f *testing.F) {
	const peer = vnet.SiteID("fuzz-peer")
	warm := folder.EncodeFolder(bigFolder('w', 200))

	frame := func(agent string, refs bool, folders ...*folder.Folder) []byte {
		bc := folder.NewBriefcase()
		for i, fo := range folders {
			bc.Put(string(rune('A'+i)), fo)
		}
		tx := folder.NewDeltaCache(0)
		var lookup func(folder.Hash) ([]byte, bool)
		if refs {
			for _, fo := range folders {
				enc := folder.EncodeFolder(fo)
				tx.PutCopy(folder.HashBytes(enc), enc)
			}
			lookup = tx.Get
		}
		return appendMeetRequest(nil, agent, string(peer), bc, tx, lookup, nil, nil)
	}
	// The hand-written hostile cases of TestMeetRequestDecodeErrors ...
	f.Add([]byte{})
	f.Add([]byte{0x05, 'a'})
	f.Add([]byte{0x01, 'a', 0x01, 'b', 0xFF})
	// ... and one well-formed frame per outcome: run cold, run on a ref
	// hit, miss, refused with cacheable bytes, refused on a ref hit.
	f.Add(frame("count", false, bigFolder('x', 300), folder.OfStrings("tiny")))
	f.Add(frame("count", true, bigFolder('w', 200)))
	f.Add(frame("count", true, bigFolder('m', 200)))
	f.Add(frame("other", false, bigFolder('x', 300)))
	f.Add(frame("other", true, bigFolder('w', 200)))

	s := NewSite(vnet.NewNetwork().AddNode("fuzz-site"), SiteConfig{})
	s.SetGuard(onlyCount{})
	ran := 0
	s.Register("count", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		ran++
		return nil
	}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		s.wiremu.Lock()
		delete(s.wirePeers, peer)
		s.wiremu.Unlock()
		pw := s.peerWire(peer)
		pw.cache.PutCopy(folder.HashBytes(warm), warm)
		n, size := pw.cache.Len(), pw.cache.Bytes()
		ran = 0
		// What a caller sending these bytes would hold pinned: every folder
		// the request shipped as cacheable or referenced.
		pinned := map[folder.Hash][]byte{}
		_, _, _, _, _ = decodeMeetRequest(payload, func(h folder.Hash) ([]byte, bool) {
			enc, ok := pw.cache.Get(h)
			if ok {
				pinned[h] = enc
			}
			return enc, ok
		}, func(h folder.Hash, enc []byte) { pinned[h] = enc })

		resp, err := s.serveMeet2(peer, payload)
		if err != nil || (len(resp) > 0 && resp[0] == replyMiss) {
			if ran != 0 {
				t.Fatalf("meet ran %d times behind err=%v resp=%x", ran, err, resp)
			}
			if pw.cache.Len() != n || pw.cache.Bytes() != size {
				t.Fatalf("arrival that did not run changed the peer cache: %d entries/%d B → %d/%d (err=%v)",
					n, size, pw.cache.Len(), pw.cache.Bytes(), err)
			}
			if err == nil {
				if _, err := decodeMissReply(resp[1:]); err != nil {
					t.Fatalf("malformed miss reply: %v", err)
				}
			}
			return
		}
		if len(resp) == 0 || resp[0] != replyBriefcase {
			t.Fatalf("reply %x is neither a miss nor a briefcase", resp)
		}
		if ran != 1 {
			t.Fatalf("briefcase reply after %d runs", ran)
		}
		_, missing, err := folder.DecodeBriefcaseDelta(resp[1:], func(h folder.Hash) ([]byte, bool) {
			enc, ok := pinned[h]
			return enc, ok
		}, nil)
		if err != nil || len(missing) > 0 {
			t.Fatalf("reply refs beyond the request's pins: err=%v missing=%d", err, len(missing))
		}
	})
}
