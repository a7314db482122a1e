package guard

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// TestItineraryShipsSIGBytesOncePerLink is the wire-protocol-v2 byte
// counter for the paper's core workload: a signed agent carrying its frozen
// SIG folder around a multi-hop itinerary. The signature is created once at
// launch and stays byte-identical on every hop (jump restores CODE before
// each move), so after the first traversal of a link the SIG folder must
// cross as a 32-byte content ref — full SIG bytes ship exactly once per
// directed link, never per hop. CODE, restored un-memoized by ag_tacl at
// every site, follows the second-sight rule instead: unhashed full bytes on
// a link's first traversal, cacheable full bytes on its second, refs after.
func TestItineraryShipsSIGBytesOncePerLink(t *testing.T) {
	sys := core.NewNamedSystem([]vnet.SiteID{"A", "B", "C"}, core.SystemConfig{Seed: 7})
	defer sys.Wait()

	// Wire accounting: every delta-eligible folder entry any site encodes,
	// keyed by (encoder, peer, folder, kind).
	type key struct {
		from, to vnet.SiteID
		name     string
		tag      byte
	}
	var mu sync.Mutex
	entries := make(map[key]int)
	fullSizes := make(map[key]int)
	for _, id := range sys.Names() {
		id := id
		sys.Site(id).SetWireRecorder(func(peer vnet.SiteID, name string, tag byte, n int) {
			mu.Lock()
			k := key{id, peer, name, tag}
			entries[k]++
			if tag == folder.EntryFullCached {
				fullSizes[k] = n
			}
			mu.Unlock()
		})
	}

	keys := NewKeyring()
	keys.Enroll("traveler")

	// Three full loops of the ring: A→B→C→A→B→C→A→B→C→A. The second
	// traversal of every link must ref SIG, the third CODE too.
	// The filler line keeps the CODE folder over the mutable-folder delta
	// threshold, as any realistic agent script would be.
	script := `
set mission "survey the ring, one TRAIL entry per station, then report home"
bc_push TRAIL [host]
if {[bc_len HOPS] > 0} {
	set next [bc_dequeue HOPS]
	jump $next
}
bc_push TRAIL done
`
	bc, err := SignedScript(keys, "traveler", "A", script, nil)
	if err != nil {
		t.Fatal(err)
	}
	bc.Put("HOPS", folder.OfStrings("B", "C", "A", "B", "C", "A", "B", "C", "A"))
	if err := Launch(context.Background(), sys.Site("A"), bc); err != nil {
		t.Fatal(err)
	}

	trail, err := bc.Folder("TRAIL")
	if err != nil || trail.Len() != 11 { // launch + 9 hops + "done"
		t.Fatalf("TRAIL = %v (err %v), want 11 stations", trail, err)
	}

	mu.Lock()
	defer mu.Unlock()
	links := [][2]vnet.SiteID{{"A", "B"}, {"B", "C"}, {"C", "A"}}
	var sigSize int
	for _, l := range links {
		kFull := key{l[0], l[1], SigFolder, folder.EntryFullCached}
		kRef := key{l[0], l[1], SigFolder, folder.EntryRef}
		if got := entries[kFull]; got != 1 {
			t.Errorf("link %s→%s shipped full SIG bytes %d times, want exactly 1", l[0], l[1], got)
		}
		if got := entries[kRef]; got < 1 {
			t.Errorf("link %s→%s never shipped SIG as a ref (second loop leaked bytes)", l[0], l[1])
		}
		if sigSize == 0 {
			sigSize = fullSizes[kFull]
		} else if fullSizes[kFull] != sigSize {
			t.Errorf("link %s→%s SIG encoding size %d != %d (SIG not byte-identical across hops)",
				l[0], l[1], fullSizes[kFull], sigSize)
		}
		if got := entries[key{l[0], l[1], SigFolder, folder.EntryFull}]; got != 0 {
			t.Errorf("link %s→%s shipped SIG unhashed %d times; a frozen folder is always addressed", l[0], l[1], got)
		}
		// CODE is restored byte-identically before each hop, so the link
		// sees it once unhashed, once cacheable, then only as refs.
		for tag, want := range map[byte]int{folder.EntryFull: 1, folder.EntryFullCached: 1, folder.EntryRef: 1} {
			if got := entries[key{l[0], l[1], folder.CodeFolder, tag}]; got != want {
				t.Errorf("link %s→%s shipped CODE with tag %#x %d times, want %d", l[0], l[1], tag, got, want)
			}
		}
	}
	// Replies carry SIG back down the nested meet chain; every one of those
	// must be a ref (the request pinned it), never full bytes.
	for k, n := range entries {
		if k.name == SigFolder && k.tag == folder.EntryFullCached {
			found := false
			for _, l := range links {
				if k.from == l[0] && k.to == l[1] {
					found = true
				}
			}
			if !found {
				t.Errorf("unexpected full SIG ship on %s→%s (%d times) — replies must ref", k.from, k.to, n)
			}
		}
	}
}
