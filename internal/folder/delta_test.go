package folder

import (
	"bytes"
	"fmt"
	"testing"
)

func deltaFolder(fill byte, n int) *Folder {
	e := make([]byte, n)
	for i := range e {
		e[i] = fill
	}
	return Of(e)
}

func TestDeltaCacheBasics(t *testing.T) {
	c := NewDeltaCache(1 << 10)
	enc := EncodeFolder(deltaFolder('a', 100))
	h := HashBytes(enc)
	stored := c.PutCopy(h, enc)
	if !bytes.Equal(stored, enc) {
		t.Fatal("PutCopy mangled bytes")
	}
	enc[0] ^= 0xFF // caller may reuse its buffer; the cache must hold a copy
	got, ok := c.Get(h)
	if !ok || got[0] == enc[0] {
		t.Fatal("cache aliased the caller's buffer")
	}
	c.Forget(h)
	if _, ok := c.Get(h); ok {
		t.Fatal("Forget left the entry")
	}
	if c.Bytes() != 0 {
		t.Fatalf("Bytes = %d after Forget", c.Bytes())
	}
}

// TestDeltaCacheHostilePeerCannotPinUnboundedBytes floods a cache the way a
// hostile peer would — an endless stream of unique cacheable folders — and
// checks the byte bound holds throughout, old entries are evicted rather
// than new ones refused (so the attacker degrades itself to full sends,
// not the victim to unbounded memory), and the eviction bookkeeping stays
// consistent.
func TestDeltaCacheHostilePeerCannotPinUnboundedBytes(t *testing.T) {
	const maxBytes = 4 << 10
	c := NewDeltaCache(maxBytes)
	var hashes []Hash
	for i := 0; i < 1000; i++ {
		enc := EncodeFolder(OfStrings(fmt.Sprintf("unique-folder-%06d-%s", i, string(make([]byte, 100)))))
		h := HashBytes(enc)
		c.PutCopy(h, enc)
		hashes = append(hashes, h)
		if c.Bytes() > maxBytes {
			t.Fatalf("after %d inserts cache holds %d bytes > bound %d", i+1, c.Bytes(), maxBytes)
		}
	}
	if _, ok := c.Get(hashes[0]); ok {
		t.Fatal("oldest entry survived a 1000-entry flood of a 4KiB cache")
	}
	if _, ok := c.Get(hashes[len(hashes)-1]); !ok {
		t.Fatal("newest entry was refused — victim degraded instead of attacker")
	}
	// An entry bigger than the whole cache must not wipe it.
	before := c.Len()
	huge := EncodeFolder(deltaFolder('h', maxBytes+1))
	c.PutCopy(HashBytes(huge), huge)
	if c.Len() != before {
		t.Fatal("oversized entry disturbed the cache")
	}
}

// TestDeltaCacheForgetThenReinsert pins the miss-repair path: after Forget
// (a peer reported a miss) and re-insert, the entry must age as the newest
// in the cache — a stale eviction-order slot from before the Forget must
// not get it evicted ahead of genuinely older entries, which would re-miss
// exactly the entry the miss protocol just repaired.
func TestDeltaCacheForgetThenReinsert(t *testing.T) {
	entry := func(i int) ([]byte, Hash) {
		enc := EncodeFolder(OfStrings(fmt.Sprintf("entry-%03d-%s", i, string(make([]byte, 60)))))
		return enc, HashBytes(enc)
	}
	enc0, h0 := entry(0)
	c := NewDeltaCache(5 * len(enc0)) // room for ~5 entries
	c.PutCopy(h0, enc0)
	_, h1 := entry(1)
	enc1, _ := entry(1)
	c.PutCopy(h1, enc1)

	c.Forget(h0)
	c.PutCopy(h0, enc0) // repaired: h0 is now the newest entry

	// Fill until the oldest genuine entry (h1) evicts; h0 must survive it.
	for i := 2; i < 6; i++ {
		enc, h := entry(i)
		c.PutCopy(h, enc)
	}
	if _, ok := c.Get(h0); !ok {
		t.Fatal("re-inserted entry evicted via its stale pre-Forget order slot")
	}
	if _, ok := c.Get(h1); ok {
		t.Fatal("oldest entry survived while capacity forced an eviction")
	}
}

// TestDeltaEncodeWarmRefs pins the ref mechanics outside the kernel: the
// first encode ships the mutable folder unhashed, the second caches it on
// both ends, and the third, against the warm cache, must be much smaller
// and must decode identically through the receiver's cache.
func TestDeltaEncodeWarmRefs(t *testing.T) {
	bc := NewBriefcase()
	bc.Put("BIG", deltaFolder('x', 1000))
	bc.Put("FROZEN", deltaFolder('f', 500).Freeze())
	bc.PutString("SMALL", "tiny")

	tx, rx := NewDeltaCache(0), NewDeltaCache(0)
	receive := func(enc []byte) *Briefcase {
		t.Helper()
		got, missing, err := DecodeBriefcaseDelta(enc, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) })
		if err != nil || len(missing) > 0 {
			t.Fatalf("decode: err=%v missing=%d", err, len(missing))
		}
		return got
	}

	cold := AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, nil)
	if got := receive(cold); !bc.Equal(got) {
		t.Fatal("cold round trip changed briefcase")
	}
	second := AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, nil)
	if got := receive(second); !bc.Equal(got) {
		t.Fatal("second-sight round trip changed briefcase")
	}
	warm := AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, nil)
	if got := receive(warm); !bc.Equal(got) {
		t.Fatal("warm round trip changed briefcase")
	}
	if len(warm) >= len(cold)/4 {
		t.Fatalf("warm encode %dB not much smaller than cold %dB — refs not taken", len(warm), len(cold))
	}
}

// tagRecorder returns a DeltaRecorder that stores the entry tag of folder
// name in *tag.
func tagRecorder(name string, tag *byte) DeltaRecorder {
	return func(n string, t byte, _ int) {
		if n == name {
			*tag = t
		}
	}
}

// TestDeltaFirstSightSkipsHash pins the second-sight rule for a fresh
// un-memoized folder: its first ship over a link is plain EntryFull with no
// cache insert and no digest memo on either end, its second is
// EntryFullCached, its third a ref; the first-sight round trip allocates no
// more than the plain codec; and a fingerprint collision never changes the
// bytes that arrive.
func TestDeltaFirstSightSkipsHash(t *testing.T) {
	f := deltaFolder('q', 4096)
	bc := NewBriefcase()
	bc.Put("DATA", f)
	tx, rx := NewDeltaCache(0), NewDeltaCache(0)
	var recorded []byte
	rec := func(name string, tag byte, n int) {
		if n != encodedFolderSize(f) {
			t.Errorf("recorded %d bytes for %s, want %d", n, name, encodedFolderSize(f))
		}
		recorded = append(recorded, tag)
	}
	ship := func() (byte, *Briefcase) {
		t.Helper()
		enc := AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, rec)
		tag := recorded[len(recorded)-1]
		got, missing, err := DecodeBriefcaseDelta(enc, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) })
		if err != nil || len(missing) > 0 || !bc.Equal(got) {
			t.Fatalf("round trip: err=%v missing=%d", err, len(missing))
		}
		return tag, got
	}

	tag, got := ship()
	if tag != EntryFull {
		t.Fatalf("first ship tag %#x, want EntryFull", tag)
	}
	if tx.Len() != 0 || rx.Len() != 0 {
		t.Fatalf("first sight cached: tx %d rx %d entries", tx.Len(), rx.Len())
	}
	if _, _, _, ok := f.cachedDigest(); ok {
		t.Fatal("first sight memoized the sender's digest")
	}
	if _, _, _, ok := got.Lookup("DATA").cachedDigest(); ok {
		t.Fatal("first sight memoized the receiver's digest")
	}
	if tag, _ := ship(); tag != EntryFullCached {
		t.Fatalf("second ship tag %#x, want EntryFullCached", tag)
	}
	if tx.Len() != 1 || rx.Len() != 1 {
		t.Fatalf("second sight: tx %d rx %d entries, want 1 each", tx.Len(), rx.Len())
	}
	if tag, _ := ship(); tag != EntryRef {
		t.Fatalf("third ship tag %#x, want EntryRef", tag)
	}
	if want := []byte{EntryFull, EntryFullCached, EntryRef}; !bytes.Equal(recorded, want) {
		t.Fatalf("recorder saw %v, want %v", recorded, want)
	}

	// Allocations: a first-sight delta round trip against the plain codec,
	// over fresh folders so every delta ship is a first sight.
	const runs = 50
	fresh := make([]*Briefcase, runs+1)
	for i := range fresh {
		e := make([]byte, 4096)
		e[0], e[1] = byte(i), byte(i>>8)
		fresh[i] = NewBriefcase()
		fresh[i].Put("DATA", Of(e))
	}
	buf := make([]byte, 0, 8192)
	i := 0
	plain := testing.AllocsPerRun(runs, func() {
		buf = AppendBriefcase(buf[:0], fresh[i%len(fresh)])
		i++
		if _, err := DecodeBriefcase(buf); err != nil {
			t.Fatal(err)
		}
	})
	fc, fr := NewDeltaCache(0), NewDeltaCache(0)
	i = 0
	delta := testing.AllocsPerRun(runs, func() {
		buf = AppendBriefcaseDelta(buf[:0], fresh[i], fc, fc.Get, nil, nil)
		i++
		if _, _, err := DecodeBriefcaseDelta(buf, fr.Get, func(h Hash, seg []byte) { fr.PutCopy(h, seg) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("first-sight round trip: %.0f allocs (plain codec %.0f)", delta, plain)
	if delta > plain {
		t.Fatalf("first-sight delta round trip: %.0f allocs, plain codec %.0f", delta, plain)
	}
	if fc.Len() != 0 || fr.Len() != 0 {
		t.Fatalf("fresh folders cached: %d/%d entries", fc.Len(), fr.Len())
	}

	// Collision: force two different encodings into one slot by giving a
	// cache a single-slot table and planting the first folder's
	// fingerprint, so the second folder meets a stale slot. The ship still
	// round-trips byte-identically; a collision only changes the tag.
	one := NewDeltaCache(1) // smallest budget: one slot
	one.secondSight(EncodeFolder(deltaFolder('c', 4096)))
	if n := len(*one.seenTable()); n != 1 {
		t.Fatalf("1-byte budget cache has %d slots, want 1", n)
	}
	other := NewBriefcase()
	other.Put("DATA", deltaFolder('d', 4096))
	for round := 0; round < 3; round++ {
		enc := AppendBriefcaseDelta(nil, other, one, one.Get, nil, nil)
		back, missing, err := DecodeBriefcaseDelta(enc, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) })
		if err != nil || len(missing) > 0 || !other.Equal(back) {
			t.Fatalf("collision round %d: err=%v missing=%d", round, err, len(missing))
		}
		// Alternate the occupant so the slot keeps colliding.
		one.secondSight(EncodeFolder(deltaFolder('c', 4096)))
	}
	// A fingerprint that matches by accident (planted directly) takes the
	// hashing path for a folder never shipped: today's EntryFullCached.
	third := NewBriefcase()
	third.Put("DATA", deltaFolder('e', 4096))
	(*one.seenTable())[0].Store(fingerprint(EncodeFolder(third.Lookup("DATA"))))
	tag = 0
	enc := AppendBriefcaseDelta(nil, third, one, one.Get, nil, tagRecorder("DATA", &tag))
	if tag != EntryFullCached {
		t.Fatalf("colliding fingerprint shipped tag %#x, want EntryFullCached", tag)
	}
	back, missing, err := DecodeBriefcaseDelta(enc, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) })
	if err != nil || len(missing) > 0 || !third.Equal(back) {
		t.Fatalf("collision round trip: err=%v missing=%d", err, len(missing))
	}
}

// TestDeltaSeenTableBounded floods one link with unique folders, each
// shipped twice so every one of them enters the cache: the byte bound
// holds throughout, and the seen table keeps its one slot per KiB of budget.
func TestDeltaSeenTableBounded(t *testing.T) {
	const maxBytes = 16 << 10
	tx, rx := NewDeltaCache(maxBytes), NewDeltaCache(maxBytes)
	for i := 0; i < 500; i++ {
		bc := NewBriefcase()
		bc.Put("DATA", OfStrings(fmt.Sprintf("unique-%06d-%s", i, string(make([]byte, 400)))))
		for ship := 0; ship < 2; ship++ {
			enc := AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, nil)
			if _, _, err := DecodeBriefcaseDelta(enc, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) }); err != nil {
				t.Fatal(err)
			}
		}
		if tx.Bytes() > maxBytes || rx.Bytes() > maxBytes {
			t.Fatalf("after %d folders caches hold %d/%d bytes > bound %d", i+1, tx.Bytes(), rx.Bytes(), maxBytes)
		}
		if n := len(*tx.seenTable()); n != maxBytes>>10 {
			t.Fatalf("seen table has %d slots, want %d", n, maxBytes>>10)
		}
	}
	if tx.Len() == 0 {
		t.Fatal("twice-shipped folders never entered the cache")
	}
	if n := len(*NewDeltaCache(0).seenTable()); n != DefaultDeltaCacheBytes>>10 {
		t.Fatalf("default cache seen table has %d slots, want %d", n, DefaultDeltaCacheBytes>>10)
	}
}

// FuzzDecodeDelta holds the delta decoder to the transport's safety bar:
// arbitrary bytes never panic, anything that decodes cleanly round-trips
// through a cold re-encode, the second-sight and warm (ref) re-encodes
// decode identically, and the miss path is lossless — refs against an
// empty receiver report exactly the missing hashes, and the forced-full
// fallback re-ships a briefcase that decodes equal. This is the codec half
// of the meet2 miss protocol.
func FuzzDecodeDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{magicBriefcaseDelta, codecVersion, 0})
	f.Add([]byte{magicBriefcaseDelta, codecVersion, 1, 1, 'F', EntryRef})

	seed := NewBriefcase()
	seed.Put("CODE", OfStrings("bc_push TRAIL [host]", string(make([]byte, 200))))
	seed.PutString("HOST", "site-1")
	seed.Put("BLOB", deltaFolder('b', 80))
	// One seed per entry tag for CODE: a cold ship, a second sight and a
	// warm ship.
	warmTx := NewDeltaCache(0)
	for _, want := range []byte{EntryFull, EntryFullCached, EntryRef} {
		var got byte
		enc := AppendBriefcaseDelta(nil, seed, warmTx, warmTx.Get, nil, tagRecorder("CODE", &got))
		if got != want {
			f.Fatalf("CODE seed tag %#x, want %#x", got, want)
		}
		f.Add(enc)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		empty := func(Hash) ([]byte, bool) { return nil, false }
		bc, missing, err := DecodeBriefcaseDelta(data, empty, nil)
		if err != nil {
			return // malformed input may fail, never panic
		}
		if bc == nil {
			if len(missing) == 0 {
				t.Fatal("nil briefcase with no missing hashes and no error")
			}
			return // unresolvable refs: nothing further to check from raw bytes
		}
		// Cold, second-sight and warm re-encodes (refs against tx) must
		// decode identically via rx, which holds the same entries per the
		// mutual-insertion invariant.
		tx, rx := NewDeltaCache(0), NewDeltaCache(0)
		var warm []byte
		for round := 0; round < 3; round++ {
			warm = AppendBriefcaseDelta(nil, bc, tx, tx.Get, nil, nil)
			back, miss2, err := DecodeBriefcaseDelta(warm, rx.Get, func(h Hash, seg []byte) { rx.PutCopy(h, seg) })
			if err != nil || len(miss2) > 0 {
				t.Fatalf("round %d: re-decode failed: err=%v missing=%d", round, err, len(miss2))
			}
			if !bc.Equal(back) {
				t.Fatalf("round %d: round trip changed briefcase", round)
			}
		}
		// Miss path: the warm encoding against an empty receiver must
		// report misses (if it contains refs), and the forced-full fallback
		// must round-trip — the codec half of the meet2 retry.
		if _, missWarm, err := DecodeBriefcaseDelta(warm, empty, nil); err == nil && len(missWarm) > 0 {
			full := AppendBriefcaseDelta(nil, bc, NewDeltaCache(0), nil, nil, nil)
			back3, miss4, err := DecodeBriefcaseDelta(full, empty, nil)
			if err != nil || len(miss4) > 0 {
				t.Fatalf("forced-full fallback failed: err=%v missing=%d", err, len(miss4))
			}
			if !bc.Equal(back3) {
				t.Fatal("miss→full fallback changed briefcase")
			}
		}
	})
}
