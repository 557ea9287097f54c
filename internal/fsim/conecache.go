package fsim

import (
	"sync"

	"multidiag/internal/fault"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
)

// poWordDiff is one cached per-word simulation outcome: the failing-pattern
// mask observed at one primary output (by PO index) for one packed word.
type poWordDiff struct {
	po   int32
	diff uint64
}

// coneKey identifies one cached cone evaluation: a stuck-at hypothesis and
// the packed pattern word it was simulated against.
type coneKey struct {
	net    netlist.NetID
	word   int32
	value1 bool
}

// coneShard is one lock domain of the cache. Entries are evicted FIFO (by
// insertion order) once the shard exceeds its capacity, which keeps eviction
// deterministic for a deterministic access sequence.
type coneShard struct {
	mu    sync.Mutex
	m     map[coneKey][]poWordDiff
	order []coneKey // insertion order ring for FIFO eviction
	head  int       // index of the oldest live entry in order
}

// coneShards is the shard count (power of two; shard picked by key hash).
const coneShards = 32

// defaultConeCacheCap is the default total entry bound (~64k (fault, word)
// results; each entry is a key plus a short diff slice).
const defaultConeCacheCap = 1 << 16

// ConeCache is a sharded, bounded cache of cone-limited fault-simulation
// results keyed by (fault site, packed pattern word). Candidates whose
// fan-out cones share output structure — and, more importantly, repeated
// diagnoses of devices built from one (circuit, test set) workload, as in
// experiment campaigns — re-simulate the same stuck-at hypotheses against
// the same packed words; the cache replays the per-word failing-output
// masks instead.
//
// Cached values are pure functions of the key for a fixed (circuit,
// patterns) binding, so any hit/miss interleaving — including under
// concurrent fault-parallel workers — yields bit-identical syndromes.
// The first FaultSim attached binds the cache to its circuit and pattern
// count; a mismatched attach is refused (see AttachCache).
//
// All methods are safe for concurrent use. A nil *ConeCache is a valid
// no-op receiver.
type ConeCache struct {
	shards   [coneShards]coneShard
	perShard int

	bindMu   sync.Mutex
	bound    bool
	numGates int
	numPats  int

	statHits      *obs.Counter
	statMisses    *obs.Counter
	statEvictions *obs.Counter
}

// NewConeCache creates a cache bounded to roughly capacity entries in
// total (0 selects the default of 64k entries).
func NewConeCache(capacity int) *ConeCache {
	if capacity <= 0 {
		capacity = defaultConeCacheCap
	}
	per := capacity / coneShards
	if per < 1 {
		per = 1
	}
	cc := &ConeCache{perShard: per}
	for i := range cc.shards {
		cc.shards[i].m = make(map[coneKey][]poWordDiff)
	}
	return cc
}

// Observe wires the cache's hit/miss/eviction counters into r (nil r
// detaches). Call once, from the goroutine that created the cache, before
// sharing it with concurrent simulators.
func (cc *ConeCache) Observe(r *obs.Registry) {
	if cc == nil {
		return
	}
	cc.statHits = r.Counter("fsim.cone_cache_hits")
	cc.statMisses = r.Counter("fsim.cone_cache_misses")
	cc.statEvictions = r.Counter("fsim.cone_cache_evictions")
}

// bind ties the cache to one (circuit, pattern set) shape on first use and
// reports whether a simulator with that shape may use the cache. Results
// are only valid per workload; a mismatch refuses the attach rather than
// serving another circuit's syndromes.
func (cc *ConeCache) bind(c *netlist.Circuit, numPats int) bool {
	cc.bindMu.Lock()
	defer cc.bindMu.Unlock()
	if !cc.bound {
		cc.bound = true
		cc.numGates = c.NumGates()
		cc.numPats = numPats
		return true
	}
	return cc.numGates == c.NumGates() && cc.numPats == numPats
}

// Len returns the current number of cached entries (for tests and sizing).
func (cc *ConeCache) Len() int {
	if cc == nil {
		return 0
	}
	n := 0
	for i := range cc.shards {
		s := &cc.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// shardOf hashes a key onto its shard.
func (cc *ConeCache) shardOf(k coneKey) *coneShard {
	h := uint64(k.net)*0x9e3779b97f4a7c15 ^ uint64(k.word)*0xd6e8feb86659fd93
	if k.value1 {
		h ^= 0xa0761d6478bd642f
	}
	h ^= h >> 29
	return &cc.shards[h%coneShards]
}

// get returns the cached per-word diffs and whether the key was present.
// An empty (nil-slice) value is a valid cached "no failing outputs" result.
func (cc *ConeCache) get(k coneKey) ([]poWordDiff, bool) {
	if cc == nil {
		return nil, false
	}
	s := cc.shardOf(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	if ok {
		cc.statHits.Inc()
	} else {
		cc.statMisses.Inc()
	}
	return v, ok
}

// put stores one per-word result, evicting the shard's oldest entry when
// the shard is full. Storing an existing key is a no-op (first writer wins;
// values for one key are identical by construction).
func (cc *ConeCache) put(k coneKey, v []poWordDiff) {
	if cc == nil {
		return
	}
	s := cc.shardOf(k)
	s.mu.Lock()
	if _, ok := s.m[k]; ok {
		s.mu.Unlock()
		return
	}
	if len(s.m) >= cc.perShard {
		// FIFO: the order ring may hold keys already evicted only if keys
		// could repeat, which put prevents, so the head is always live.
		old := s.order[s.head]
		delete(s.m, old)
		s.order[s.head] = k
		s.head = (s.head + 1) % len(s.order)
		s.m[k] = v
		s.mu.Unlock()
		cc.statEvictions.Inc()
		return
	}
	s.order = append(s.order, k)
	s.m[k] = v
	s.mu.Unlock()
}

// AttachCache binds cc to the simulator so SimulateStuckAt (and the batch
// and open variants) consult and fill it. The first simulator attached
// binds the cache to its (circuit, pattern count) shape; attaching a
// simulator with a different shape is refused — the simulator simply runs
// uncached — and reported by the return value. Attaching nil detaches.
func (fs *FaultSim) AttachCache(cc *ConeCache) bool {
	if cc == nil {
		fs.cache = nil
		return true
	}
	if !cc.bind(fs.c, len(fs.pats)) {
		fs.cache = nil
		return false
	}
	fs.cache = cc
	return true
}

// cachedWord returns the cached diffs for (f, word w), if present. Probe
// outcomes are also tallied on the simulator itself (fork-local, no
// atomics) so a request's trace can attribute each worker's cache luck.
func (fs *FaultSim) cachedWord(f fault.StuckAt, w int) ([]poWordDiff, bool) {
	diffs, ok := fs.cache.get(coneKey{net: f.Net, word: int32(w), value1: f.Value1})
	if ok {
		fs.probeHits++
	} else {
		fs.probeMisses++
	}
	return diffs, ok
}

// storeWord records the diffs computed for (f, word w).
func (fs *FaultSim) storeWord(f fault.StuckAt, w int, diffs []poWordDiff) {
	fs.cache.put(coneKey{net: f.Net, word: int32(w), value1: f.Value1}, diffs)
}
