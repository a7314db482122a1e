package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/folder"
)

// bigFolder returns a folder whose canonical encoding is comfortably over
// the delta threshold.
func bigFolder(fill byte, n int) *folder.Folder {
	e := make([]byte, n)
	for i := range e {
		e[i] = fill
	}
	return folder.Of(e)
}

// TestRemoteMeetDeltaRoundTrip proves the delta framing is transparent:
// the briefcase a remote meet folds back carries every folder unchanged,
// and a repeat meet with unchanged large folders ships refs.
func TestRemoteMeetDeltaRoundTrip(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	b.Register("stamp", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.PutString(folder.ResultFolder, "stamped at "+string(mc.Site.ID()))
		return nil
	}))

	bc := folder.NewBriefcase()
	bc.Put("BLOB", bigFolder('x', 500))
	bc.Put("FROZEN", bigFolder('f', 300).Freeze())
	bc.PutString("TINY", "below threshold")

	if err := a.RemoteMeet(context.Background(), b.ID(), "stamp", bc); err != nil {
		t.Fatal(err)
	}
	if got, _ := bc.GetString(folder.ResultFolder); got != "stamped at site-1" {
		t.Fatalf("RESULT = %q", got)
	}
	if got, _ := bc.Folder("BLOB"); !got.Equal(bigFolder('x', 500)) {
		t.Fatal("BLOB changed in transit")
	}
	st := a.WireStats()
	if st.MeetsV2 != 1 {
		t.Fatalf("stats after first meet: %+v", st)
	}
	if st.RefFolders != 0 {
		t.Fatalf("first meet shipped refs with a cold cache: %+v", st)
	}
	firstFull := st.FullFolders

	// Second meet: BLOB and FROZEN are unchanged → both go as refs, in the
	// request and in the reply.
	if err := a.RemoteMeet(context.Background(), b.ID(), "stamp", bc); err != nil {
		t.Fatal(err)
	}
	st = a.WireStats()
	if st.RefFolders < 2 {
		t.Fatalf("repeat meet shipped no refs: %+v", st)
	}
	if st.FullFolders != firstFull {
		t.Fatalf("repeat meet re-shipped full folders: %+v", st)
	}
	if got, _ := bc.Folder("FROZEN"); !got.Equal(bigFolder('f', 300)) {
		t.Fatal("FROZEN changed in transit")
	}
}

// TestRemoteMeetDeltaMissRecovers evicts the callee's cache between meets:
// the caller's ref must come back as a miss, and the retry must re-ship
// full bytes and still execute the meet exactly once.
func TestRemoteMeetDeltaMissRecovers(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	var meets int
	b.Register("count", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		meets++
		return nil
	}))

	bc := folder.NewBriefcase()
	bc.Put("BLOB", bigFolder('x', 400))
	if err := a.RemoteMeet(context.Background(), b.ID(), "count", bc); err != nil {
		t.Fatal(err)
	}

	// Simulate the callee evicting everything: flood its cache for peer a
	// with junk until the BLOB entry is gone.
	pw := b.peerWire(a.ID())
	for i := 0; i < 20000 && pw.cache.Len() > 0; i++ {
		junk := folder.EncodeFolder(bigFolder(byte(i), 64))
		junk[10] = byte(i >> 8) // vary content
		pw.cache.PutCopy(folder.HashBytes(junk), junk)
	}

	if err := a.RemoteMeet(context.Background(), b.ID(), "count", bc); err != nil {
		t.Fatal(err)
	}
	if meets != 2 {
		t.Fatalf("meets = %d, want 2 (miss retry must not double-execute)", meets)
	}
	if st := a.WireStats(); st.Misses != 1 {
		t.Fatalf("caller observed %d misses, want 1 (%+v)", st.Misses, st)
	}
}

// TestLegacyMeetKindRefused hand-frames a whole-briefcase "meet" request —
// what a seed-era binary sent — against a current site: the kind is
// unknown, so nothing is decoded and no agent runs.
func TestLegacyMeetKindRefused(t *testing.T) {
	sys := testSystem(t, 2)
	b := sys.SiteAt(1)
	ran := false
	b.Register("echo", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		ran = true
		return nil
	}))

	bc := folder.NewBriefcase()
	bc.PutString("IN", "legacy")
	payload := binary.AppendUvarint(nil, uint64(len("echo")))
	payload = append(payload, "echo"...)
	payload = binary.AppendUvarint(payload, uint64(len("site-0")))
	payload = append(payload, "site-0"...)
	payload = folder.AppendBriefcase(payload, bc)

	before := b.Activations()
	_, err := sys.Net.Node("site-0").Call(context.Background(), b.ID(), "meet", payload)
	if err == nil || !strings.Contains(err.Error(), "unknown message kind") {
		t.Fatalf("err = %v, want unknown message kind", err)
	}
	if ran || b.Activations() != before {
		t.Fatalf("legacy frame ran an agent (ran=%v, activations %d → %d)", ran, before, b.Activations())
	}
}

// TestDeltaFoldersDecodeIdentical pins the codec equivalence the delta path
// rests on: a delta encode/decode round trip (cold cache and warm cache)
// yields a briefcase equal to the original.
func TestDeltaFoldersDecodeIdentical(t *testing.T) {
	bc := folder.NewBriefcase()
	bc.Put("A", bigFolder('a', 100))
	bc.Put("B", bigFolder('b', 200).Freeze())
	bc.PutString("C", "small")

	cacheTx := folder.NewDeltaCache(0)
	cacheRx := folder.NewDeltaCache(0)
	for round := 0; round < 2; round++ {
		enc := folder.AppendBriefcaseDelta(nil, bc, cacheTx, cacheTx.Get, nil, nil)
		got, missing, err := folder.DecodeBriefcaseDelta(enc, cacheRx.Get, func(h folder.Hash, seg []byte) {
			cacheRx.PutCopy(h, seg)
		})
		if err != nil || len(missing) > 0 {
			t.Fatalf("round %d: err=%v missing=%d", round, err, len(missing))
		}
		if !bc.Equal(got) {
			t.Fatalf("round %d: delta round trip changed briefcase", round)
		}
	}
}
