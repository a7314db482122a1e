package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/tacl"
)

// scriptCache is a site's compile-once cache for TacL agent scripts, keyed
// by a 64-bit FNV-1a content hash. Lookups are lock-free reads of an
// immutable copy-on-write map, so concurrent activations — even of the very
// same script — never touch a shared mutex: an RLock here still bounces the
// lock word between cores on every activation, which a GOMAXPROCS sweep
// showed as the first contention point on the scripted meet path. Writes
// (one per distinct script, ever) copy the shard map.
// Agent code is an uninterpreted byte string that travels verbatim in the
// CODE folder — and signed briefcases keep it byte-identical across every
// hop of an itinerary (guard.Sign covers CODE, so a mutated script is
// rejected before it runs) — which makes the content hash a stable identity
// for a roaming agent: the second and every later activation of the same
// script at this site skips Parse entirely.
const (
	scriptCacheShards   = 16
	scriptCacheShardCap = 64
	// maxCacheableScript bounds the size of a retained script, so the
	// cache's worst-case footprint is shards × cap × this. A legitimate
	// roaming agent is a few KB; anything larger still runs, it just
	// re-parses per activation.
	maxCacheableScript = 32 << 10
)

type scriptCache struct {
	shards [scriptCacheShards]scriptCacheShard
}

type scriptCacheShard struct {
	mu sync.Mutex   // serializes writers; readers never take it
	v  atomic.Value // map[uint64]scriptEntry, replaced wholesale on insert
}

type scriptEntry struct {
	src  string
	prog *tacl.Script
}

// scriptHash is 64-bit FNV-1a over the script source.
func scriptHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// compiled returns the parsed form of src, parsing at most once per content
// hash. On a hash collision (the stored source differs) the newcomer is
// parsed fresh and not cached — first writer wins, correctness never
// depends on the hash.
func (c *scriptCache) compiled(src string) (*tacl.Script, error) {
	h := scriptHash(src)
	sh := &c.shards[h&(scriptCacheShards-1)]
	m, _ := sh.v.Load().(map[uint64]scriptEntry)
	e, ok := m[h]
	if ok && e.src == src {
		return e.prog, nil
	}
	// Miss: parse through the process-wide cache, so the same script
	// arriving at many sites of one process shares a single parsed form.
	prog, err := tacl.ParseCached(src)
	if err != nil {
		return nil, err
	}
	if !ok && len(src) <= maxCacheableScript {
		// A retained script will run again: lower it to bytecode now, off
		// the next activation's critical path. The program attaches to the
		// shared *tacl.Script, so the byte-cap and admission policy above
		// bound the compiled form exactly as they bound the parse.
		prog.Precompile()
		sh.mu.Lock()
		cur, _ := sh.v.Load().(map[uint64]scriptEntry)
		if _, raced := cur[h]; !raced {
			next := make(map[uint64]scriptEntry, len(cur)+1)
			evict := len(cur) >= scriptCacheShardCap
			for k, v := range cur {
				if evict {
					// Skip an arbitrary entry; a hot script that loses its
					// slot is simply re-parsed on its next activation.
					evict = false
					continue
				}
				next[k] = v
			}
			next[h] = scriptEntry{src: src, prog: prog}
			sh.v.Store(next)
		}
		sh.mu.Unlock()
	}
	return prog, nil
}
