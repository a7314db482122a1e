package folder

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Content-addressed folder deltas (the meet wire protocol).
//
// Folder elements are immutable and frozen folders are immutable wholesale,
// so a folder's canonical encoding identifies its contents forever. The
// delta briefcase format exploits that: instead of re-shipping folder bytes
// a peer already holds, the encoder ships a 32-byte SHA-256 reference and
// both ends keep a bounded per-peer DeltaCache of hash → encoded bytes.
// The paradigm case is a signed roaming agent: its SIG folder (frozen at
// launch) and CODE folder are byte-identical on every hop of an itinerary,
// so after the first hop over a link (the second for a CODE folder that is
// not frozen) the agent's own code stops crossing the wire.
//
//	briefcaseΔ := magicBriefcaseDelta ver count:uvarint { nameLen name entry }*
//	entry      := EntryFull folder            (below threshold or first sight; not cached)
//	            | EntryFullCached folder      (both ends cache under its hash)
//	            | EntryRef hash[32]           (peer resolves from its cache)
//
// The protocol invariant both ends maintain: a hash enters a DeltaCache on
// both sides of a link at once (the sender of an EntryFullCached stores the
// bytes it ships; the receiver stores the bytes it received), so holding an
// entry is evidence the peer holds it too. Eviction breaks the invariant in
// the safe direction only: a ref the peer cannot resolve comes back as an
// explicit miss, and the caller re-ships full bytes (see internal/core's
// meet2 handling). Receivers never trust a sender's hash — they hash the
// received bytes themselves, so a hostile peer cannot poison a cache entry
// for content it does not have.
//
// Content addressing pays only for bytes a link carries more than once. A
// folder with no memoized digest is therefore hashed on its second sight:
// the first time a link ships its encoding the sender only records a 64-bit
// fingerprint in the cache's seen table and ships EntryFull; the second
// time it takes the SHA-256 path (EntryFullCached), and from the third on
// it ships a ref. A fingerprint never decides correctness — a collision or
// an overwritten slot only costs one SHA-256 the table could have skipped.
const magicBriefcaseDelta = 0xB2

// Delta entry tags, exported so wire accounting (core.WireStats, recorders)
// can name them.
const (
	EntryFull       byte = 0x00
	EntryFullCached byte = 0x01
	EntryRef        byte = 0x02
)

// DeltaMinSize is the minimum canonical encoding size for a folder with no
// memoized digest to be worth content-addressing. Such a folder pays a
// seen-table fingerprint on every ship and, once the link has carried it
// before, a SHA-256 on each side plus cache bookkeeping; below this size
// that costs more than just shipping the bytes.
const DeltaMinSize = 128

// DeltaMinSizeCached is the (lower) threshold for folders whose digest is
// already memoized — frozen folders, folders the codec shipped unchanged
// before, and folders the delta decoder materialized (which knows their
// bytes and hash for free). For these a repeat ship costs one cache probe,
// so a ref pays for itself as soon as it is smaller than the bytes it
// replaces. This is what keeps a ~90-byte SIG folder — principal, signed
// folder list, hex MAC — on the delta path at every hop of an itinerary.
const DeltaMinSizeCached = 48

// Hash is the SHA-256 of a folder's canonical encoding.
type Hash [32]byte

// HashBytes returns the content hash of an encoded folder.
func HashBytes(enc []byte) Hash { return sha256.Sum256(enc) }

// DeltaRecorder observes each eligible folder entry as it is encoded; the
// kernel uses it for wire accounting and tests use it to prove SIG bytes
// ship only once. tag is EntryFull (an un-memoized folder's first sight on
// this link), EntryFullCached or EntryRef; n is the canonical
// encoding size the entry represents — for a ref, the bytes that did NOT
// cross the wire. May be nil.
type DeltaRecorder func(name string, tag byte, n int)

// DeltaCache is one side's bounded hash → encoded-folder store for one
// peer. Entries are inserted by both the ship and the receive path and
// evicted second-chance (clock) once the byte budget is exceeded: a probe
// victim that has been referenced since its last consideration is given
// another pass, so the entries the protocol exists to keep — a roaming
// agent's SIG/CODE, hit on every meet — survive churn from one-shot
// folder traffic instead of sitting at the head of a FIFO. A peer flooding
// unique folders can still grow the cache only to its bound, at the price
// of evicting its own earlier entries, never of unbounded memory here.
//
// The cache also owns the link's seen table: a direct-mapped array of
// fingerprints of un-memoized encodings this side has shipped, one slot per
// KiB of byte budget, allocated on the first encode and never grown.
type DeltaCache struct {
	mu       sync.Mutex
	maxBytes int
	bytes    int
	entries  map[Hash]*dentry
	order    []Hash // clock order; head is the next eviction probe
	seen     atomic.Pointer[[]atomic.Uint64]
}

// seenSeed keys the seen-table fingerprints; it is per process, so a peer
// cannot aim collisions at a slot (which would only cost it SHA-256s).
var seenSeed = maphash.MakeSeed()

// seenTable returns the link's seen table, allocating it on first use.
func (c *DeltaCache) seenTable() *[]atomic.Uint64 {
	if t := c.seen.Load(); t != nil {
		return t
	}
	t := make([]atomic.Uint64, max(c.maxBytes>>10, 1))
	c.seen.CompareAndSwap(nil, &t)
	return c.seen.Load()
}

// fingerprint is an encoding's seen-table key; never 0, the empty slot.
func fingerprint(enc []byte) uint64 { return maphash.Bytes(seenSeed, enc) | 1<<63 }

// secondSight reports whether this cache's link has shipped enc before,
// and records that it has now. Slots are lock-free: a racing ship may
// overwrite another's fingerprint, which only costs a later hash.
func (c *DeltaCache) secondSight(enc []byte) bool {
	t := *c.seenTable()
	fp := fingerprint(enc)
	slot := &t[fp%uint64(len(t))]
	if slot.Load() == fp {
		return true
	}
	slot.Store(fp)
	return false
}

// dentry is one cache entry; ref is the second-chance bit, set on Get.
type dentry struct {
	enc []byte
	ref bool
}

// DefaultDeltaCacheBytes bounds one peer's cache when the kernel does not
// configure its own size.
const DefaultDeltaCacheBytes = 1 << 20

// NewDeltaCache returns an empty cache bounded to maxBytes of stored folder
// encodings (0 means DefaultDeltaCacheBytes).
func NewDeltaCache(maxBytes int) *DeltaCache {
	if maxBytes <= 0 {
		maxBytes = DefaultDeltaCacheBytes
	}
	return &DeltaCache{maxBytes: maxBytes, entries: make(map[Hash]*dentry)}
}

// Get returns the stored encoding for h, marking the entry recently used.
// The returned bytes are immutable and remain valid after eviction (the
// slice is never reused).
func (c *DeltaCache) Get(h Hash) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[h]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	e.ref = true
	enc := e.enc
	c.mu.Unlock()
	return enc, true
}

// PutCopy stores a private copy of enc under h and returns the stored
// slice; the caller may keep using (or recycling) enc.
func (c *DeltaCache) PutCopy(h Hash, enc []byte) []byte {
	return c.put(h, append([]byte(nil), enc...))
}

// PutShared stores enc itself under h. The caller asserts enc is immutable
// for the life of the process (a frozen folder's memoized encoding).
func (c *DeltaCache) PutShared(h Hash, enc []byte) []byte {
	return c.put(h, enc)
}

func (c *DeltaCache) put(h Hash, enc []byte) []byte {
	if len(enc) > c.maxBytes {
		// An entry that would evict the whole cache is not worth caching;
		// the folder simply ships full every time.
		return enc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[h]; ok {
		return prev.enc
	}
	c.entries[h] = &dentry{enc: enc}
	c.order = append(c.order, h)
	c.bytes += len(enc)
	// Second-chance eviction: a probed victim that was referenced since its
	// last consideration is recycled to the tail with its bit cleared, so
	// at most 2×len(order) probes reclaim enough bytes.
	for c.bytes > c.maxBytes && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		old, ok := c.entries[victim]
		if !ok {
			continue
		}
		if old.ref {
			old.ref = false
			c.order = append(c.order, victim)
			continue
		}
		c.bytes -= len(old.enc)
		delete(c.entries, victim)
	}
	return enc
}

// Forget drops h (after a peer reported a miss for it, meaning the mutual-
// insertion invariant no longer holds). The eviction-order slot is scrubbed
// too: left in place, a later re-insert of the same hash would be shadowed
// by the stale head slot and evicted long before its turn — re-missing
// exactly the entry the miss protocol just repaired. Forget is on the rare
// miss path, so the linear scan is fine.
func (c *DeltaCache) Forget(h Hash) {
	c.mu.Lock()
	if e, ok := c.entries[h]; ok {
		c.bytes -= len(e.enc)
		delete(c.entries, h)
		for i := range c.order {
			if c.order[i] == h {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
	c.mu.Unlock()
}

// Len reports the number of cached encodings.
func (c *DeltaCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes reports the stored encoding bytes (the evicted `order` slack is
// bookkeeping, not payload).
func (c *DeltaCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// encodedFolderSize returns the exact canonical encoding size of f without
// encoding it.
func encodedFolderSize(f *Folder) int {
	size := 2 + uvarintLen(uint64(len(f.elems)))
	for _, e := range f.elems {
		size += uvarintLen(uint64(len(e))) + len(e)
	}
	return size
}

// AppendBriefcaseDelta encodes b in the delta format against the per-peer
// cache c. Eligible folders (canonical encoding ≥ DeltaMinSize, or ≥
// DeltaMinSizeCached with a memoized digest) ship as a 32-byte ref when
// refs approves their hash, and as cacheable full bytes otherwise —
// inserting into c on the way out, per the mutual-insertion invariant. An
// eligible folder with no memoized digest that c's link has not shipped
// before goes as plain EntryFull instead: unhashed, uncached, unpinned.
//
//   - refs decides whether a ref may be emitted for a hash and returns the
//     stable stored encoding when so. Request encoders pass the peer
//     cache's Get (or nil on the miss-retry path, forcing full bytes);
//     reply encoders pass a lookup over the request's pinned hashes, which
//     is what guarantees a reply ref is always resolvable by the caller.
//   - pin, when non-nil, is invoked with the cache-stable encoding of every
//     eligible folder shipped (ref or full); the kernel uses it to resolve
//     same-call reply refs without depending on cache residency.
//
// Encoding order is sorted folder names, so equal briefcases encode
// identically for a given cache state.
func AppendBriefcaseDelta(dst []byte, b *Briefcase, c *DeltaCache,
	refs func(Hash) ([]byte, bool), pin func(h Hash, enc []byte), rec DeltaRecorder) []byte {
	dst = append(dst, magicBriefcaseDelta, codecVersion)
	names := b.Names()
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		f := b.folders[name]
		size := encodedFolderSize(f)
		if size < DeltaMinSizeCached {
			dst = append(dst, EntryFull)
			dst = AppendFolder(dst, f)
			continue
		}
		if enc, h, owned, ok := f.cachedDigest(); ok {
			// Known digest (frozen, previously shipped, or wire-decoded):
			// repeat ships cost one cache probe and, for a ref, 33 wire
			// bytes — no hashing.
			if refs != nil {
				if cached, hit := refs(h); hit {
					dst = append(dst, EntryRef)
					dst = append(dst, h[:]...)
					if pin != nil {
						pin(h, cached)
					}
					if rec != nil {
						rec(name, EntryRef, len(enc))
					}
					continue
				}
			}
			// Share self-contained encodings; copy ones that alias a
			// larger decode buffer, which must not be pinned by (and
			// hidden from the byte accounting of) a long-lived cache.
			var stored []byte
			if owned {
				stored = c.PutShared(h, enc)
			} else {
				stored = c.PutCopy(h, enc)
				f.setDigest(stored, h, true) // future ships share the tight copy
			}
			dst = append(dst, EntryFullCached)
			dst = append(dst, enc...)
			if pin != nil {
				pin(h, stored)
			}
			if rec != nil {
				rec(name, EntryFullCached, len(enc))
			}
			continue
		}
		if size < DeltaMinSize {
			// No memoized digest and too small to be worth hashing.
			dst = append(dst, EntryFull)
			dst = AppendFolder(dst, f)
			continue
		}
		// Un-memoized folder: encode into dst first. On its first sight
		// over this link it ships as plain EntryFull; on a later one hash
		// the fresh segment and rewind to a ref when the peer holds it.
		dst = append(dst, EntryFullCached)
		mark := len(dst)
		dst = AppendFolder(dst, f)
		encLen := len(dst) - mark
		if !c.secondSight(dst[mark:]) {
			dst[mark-1] = EntryFull
			if rec != nil {
				rec(name, EntryFull, encLen)
			}
			continue
		}
		h := HashBytes(dst[mark:])
		if refs != nil {
			if cached, hit := refs(h); hit {
				dst = dst[:mark-1]
				dst = append(dst, EntryRef)
				dst = append(dst, h[:]...)
				if pin != nil {
					pin(h, cached)
				}
				f.setDigest(cached, h, true) // next ship of this folder skips the hash
				if rec != nil {
					rec(name, EntryRef, encLen)
				}
				continue
			}
		}
		stored := c.PutCopy(h, dst[mark:])
		if pin != nil {
			pin(h, stored)
		}
		f.setDigest(stored, h, true) // tight cache copy; dst may be recycled
		if rec != nil {
			rec(name, EntryFullCached, encLen)
		}
	}
	return dst
}

// DecodeBriefcaseDelta parses a delta-encoded briefcase, consuming the
// entire input. resolve maps a ref hash to its stored encoding (per-call
// pins first, then the peer cache); cached, when non-nil, is invoked for
// every EntryFullCached with the receiver-computed hash and the aliased
// encoding segment so the caller can insert it into its cache (copying —
// the segment aliases data) and pin it for the reply.
//
// When any ref fails to resolve the decode returns (nil, missing, nil):
// the input was well-formed but cannot be materialized, and the caller
// must answer with a miss so the peer re-ships full bytes. Decoded folders
// alias data and the resolver's stored encodings; the caller transfers
// ownership of data and must not modify it afterwards.
func DecodeBriefcaseDelta(data []byte, resolve func(Hash) ([]byte, bool),
	cached func(h Hash, enc []byte)) (*Briefcase, []Hash, error) {
	if len(data) < 2 || data[0] != magicBriefcaseDelta {
		return nil, nil, fmt.Errorf("%w: missing delta briefcase magic", ErrCodec)
	}
	if data[1] != codecVersion {
		return nil, nil, fmt.Errorf("%w: unsupported delta briefcase version %d", ErrCodec, data[1])
	}
	data = data[2:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: bad delta briefcase count", ErrCodec)
	}
	data = data[n:]
	b := NewBriefcase()
	var missing []Hash
	for i := uint64(0); i < count; i++ {
		nlen, n := binary.Uvarint(data)
		if n <= 0 || uint64(len(data[n:])) < nlen {
			return nil, nil, fmt.Errorf("%w: bad delta folder name %d", ErrCodec, i)
		}
		data = data[n:]
		name := string(data[:nlen])
		data = data[nlen:]
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("%w: folder %q: missing entry tag", ErrCodec, name)
		}
		tag := data[0]
		data = data[1:]
		switch tag {
		case EntryFull, EntryFullCached:
			start := data
			f, rest, err := decodeFolder(data)
			if err != nil {
				return nil, nil, fmt.Errorf("folder %q: %w", name, err)
			}
			if tag == EntryFullCached {
				enc := start[:len(start)-len(rest)]
				h := HashBytes(enc)
				// The decoder knows this folder's bytes and hash for free;
				// memoizing them is what lets an intermediate hop re-ship
				// the folder toward the next site without hashing.
				f.setDigest(enc[:len(enc):len(enc)], h, false)
				if cached != nil {
					cached(h, enc)
				}
			}
			b.Put(name, f)
			data = rest
		case EntryRef:
			if len(data) < len(Hash{}) {
				return nil, nil, fmt.Errorf("%w: folder %q: truncated ref", ErrCodec, name)
			}
			var h Hash
			copy(h[:], data)
			data = data[len(h):]
			enc, ok := resolve(h)
			if !ok {
				missing = append(missing, h)
				continue
			}
			f, rest, err := decodeFolder(enc)
			if err != nil || len(rest) != 0 {
				// A cache entry that does not decode cleanly is corrupt
				// bookkeeping, not a wire error; treat it as a miss so the
				// peer re-ships authoritative bytes.
				missing = append(missing, h)
				continue
			}
			f.setDigest(enc, h, true)
			b.Put(name, f)
		default:
			return nil, nil, fmt.Errorf("%w: folder %q: unknown entry tag %#x", ErrCodec, name, tag)
		}
	}
	if len(data) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes after delta briefcase", ErrCodec, len(data))
	}
	if len(missing) > 0 {
		return nil, missing, nil
	}
	return b, nil, nil
}
