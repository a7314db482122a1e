package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/folder"
	"repro/internal/vnet"
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
// the briefcase a remote meet folds back carries every folder unchanged. A
// frozen folder ships as a ref from its second meet; a mutable one is
// content-addressed on its second trip over the link and refs from its third.
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

	meet := func() WireStats {
		t.Helper()
		if err := a.RemoteMeet(context.Background(), b.ID(), "stamp", bc); err != nil {
			t.Fatal(err)
		}
		return a.WireStats()
	}
	st := meet()
	if got, _ := bc.GetString(folder.ResultFolder); got != "stamped at site-1" {
		t.Fatalf("RESULT = %q", got)
	}
	if got, _ := bc.Folder("BLOB"); !got.Equal(bigFolder('x', 500)) {
		t.Fatal("BLOB changed in transit")
	}
	if st.MeetsV2 != 1 || st.RefFolders != 0 || st.FullFolders != 2 {
		t.Fatalf("first meet: want BLOB and FROZEN full, no refs: %+v", st)
	}

	// Second meet: FROZEN refs; BLOB is on its second sight and ships as
	// cacheable full bytes.
	st = meet()
	if st.RefFolders != 1 || st.FullFolders != 3 {
		t.Fatalf("second meet: want FROZEN as a ref and BLOB full once more: %+v", st)
	}

	// Third meet: both unchanged large folders go as refs.
	st = meet()
	if st.RefFolders != 3 || st.FullFolders != 3 {
		t.Fatalf("third meet re-shipped full folders: %+v", st)
	}
	if got, _ := bc.Folder("FROZEN"); !got.Equal(bigFolder('f', 300)) {
		t.Fatal("FROZEN changed in transit")
	}
	if got, _ := bc.Folder("BLOB"); !got.Equal(bigFolder('x', 500)) {
		t.Fatal("BLOB changed in transit")
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
	// Two meets: the first ships BLOB unhashed, the second caches it on
	// both ends, so the next meet refs it.
	for i := 0; i < 2; i++ {
		if err := a.RemoteMeet(context.Background(), b.ID(), "count", bc); err != nil {
			t.Fatal(err)
		}
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
	if meets != 3 {
		t.Fatalf("meets = %d, want 3 (miss retry must not double-execute)", meets)
	}
	if st := a.WireStats(); st.Misses != 1 {
		t.Fatalf("caller observed %d misses, want 1 (%+v)", st.Misses, st)
	}
}

// TestRemoteMeetFreshFoldersCounted pins the wire accounting of a
// courier-shaped meet — fresh bytes out, a fresh receipt back, nothing ever
// repeated: every such folder ships unhashed as EntryFull, and both sites'
// FullBytes still equal the canonical sizes of the folders they shipped.
func TestRemoteMeetFreshFoldersCounted(t *testing.T) {
	sys := testSystem(t, 2)
	a, b := sys.SiteAt(0), sys.SiteAt(1)
	var receipt int64
	b.Register("depot", AgentFunc(func(mc *MeetContext, bc *folder.Briefcase) error {
		bc.Delete("WORK")
		r := bigFolder(byte(receipt), 4096)
		receipt++
		bc.Put(folder.ResultFolder, r)
		return nil
	}))
	var tags [3]int
	for _, s := range []*Site{a, b} {
		s.SetWireRecorder(func(_ vnet.SiteID, _ string, tag byte, _ int) { tags[tag]++ })
	}

	var sent, received int64
	const meets = 4
	for i := 0; i < meets; i++ {
		work := folder.New()
		for k := 0; k < 8; k++ {
			e := make([]byte, 512)
			e[0], e[1] = byte(i), byte(k)
			work.PushOwned(e)
		}
		bc := folder.NewBriefcase()
		bc.Put("WORK", work)
		sent += int64(len(folder.EncodeFolder(work)))
		if err := a.RemoteMeet(context.Background(), b.ID(), "depot", bc); err != nil {
			t.Fatal(err)
		}
		r, err := bc.Folder(folder.ResultFolder)
		if err != nil {
			t.Fatal(err)
		}
		received += int64(len(folder.EncodeFolder(r)))
	}
	sa, sb := a.WireStats(), b.WireStats()
	if sa.FullFolders != meets || sa.FullBytes != sent || sa.RefFolders != 0 {
		t.Fatalf("caller: %d full folders / %d B, want %d / %d (%+v)", sa.FullFolders, sa.FullBytes, meets, sent, sa)
	}
	if sb.FullFolders != meets || sb.FullBytes != received || sb.RefFolders != 0 {
		t.Fatalf("callee: %d full folders / %d B, want %d / %d (%+v)", sb.FullFolders, sb.FullBytes, meets, received, sb)
	}
	if tags != [3]int{folder.EntryFull: 2 * meets} {
		t.Fatalf("entry tags %v, want only EntryFull", tags)
	}
	if n := a.peerWire(b.ID()).cache.Len() + b.peerWire(a.ID()).cache.Len(); n != 0 {
		t.Fatalf("fresh folders left %d cache entries", n)
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
