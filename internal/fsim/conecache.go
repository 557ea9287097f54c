package fsim

import (
	"sync"

	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
)

// flip is one memoized flip: for a pattern word w and a net r, the
// outputs whose word Propagate(w, Force{r, ¬good[r]}) changes. CPT reads
// a stem's flip as its verdict; stuck-at scoring reads the flip of the
// root of the fault's fanout-free region (see SimulateStuckAt). It is one
// allocation, laid out as
//
//	f[0]                   n, the number of changed outputs, with
//	                       flipKnown set when known differences follow;
//	f[1 : 1+n]             each output's three-valued difference: the
//	                       patterns where its value changed, to or from X
//	                       included (CPT);
//	f[1+n : 1+n+(n+1)/2]   the outputs' PO indices, two per word;
//	then, with flipKnown,  each output's known difference: both values
//	n words                determinate and unequal (scoring).
//
// The two differences can only part where the word holds an X, so an
// entry of an X-free word carries the three-valued ones alone: 12 bytes
// per output.
type flip []uint64

// flipKnown marks a flip carrying known differences of its own.
const flipKnown = 1 << 63

// noFlip is the shared entry of a flip that changes no output.
var noFlip = flip{0}

// newFlip packs Propagate's changed outputs for word w into a flip.
func (fs *FaultSim) newFlip(w int, reached []POWord) flip {
	n := len(reached)
	if n == 0 {
		return noFlip
	}
	good := fs.words[w]
	known := false
	for _, r := range reached {
		g := good[fs.c.POs[r.PO]]
		known = known || r.Val.DiffKnown(g) != diff3(r.Val, g)
	}
	size := 1 + n + (n+1)/2
	if known {
		size += n
	}
	f := make(flip, size)
	f[0] = uint64(n)
	if known {
		f[0] |= flipKnown
	}
	for i, r := range reached {
		g := good[fs.c.POs[r.PO]]
		f[1+i] = diff3(r.Val, g)
		f[1+n+i/2] |= uint64(r.PO) << (32 * (i % 2))
		if known {
			f[1+n+(n+1)/2+i] = r.Val.DiffKnown(g)
		}
	}
	return f
}

// diff3 is the three-valued difference of two words: the slots whose
// values differ, X counting as a value of its own.
func diff3(a, b logic.PV64) uint64 { return (a.V0 ^ b.V0) | (a.V1 ^ b.V1) }

// len returns the number of changed outputs.
func (f flip) len() int { return int(uint32(f[0])) }

// po returns the PO index of changed output i.
func (f flip) po(i int) int { return int(uint32(f[1+f.len()+i/2] >> (32 * (i % 2)))) }

// diff returns changed output i's three-valued difference.
func (f flip) diff(i int) uint64 { return f[1+i] }

// known returns changed output i's known difference.
func (f flip) known(i int) uint64 {
	if f[0]&flipKnown == 0 {
		return f[1+i]
	}
	n := f.len()
	return f[1+n+(n+1)/2+i]
}

// coneKey identifies one memoized flip: the flipped net and the packed
// pattern word it was flipped in.
type coneKey struct {
	net  netlist.NetID
	word int32
}

// coneShard is one lock domain of the cache, allocated on its first store.
// Entries are evicted FIFO (by insertion order) once the shard exceeds its
// capacity, which keeps eviction deterministic for a deterministic access
// sequence.
type coneShard struct {
	mu    sync.Mutex
	m     map[coneKey]flip
	order []coneKey // insertion order ring for FIFO eviction
	head  int       // index of the oldest live entry in order
}

// coneShards is the shard count (power of two; shard picked by key hash).
const coneShards = 32

// defaultConeCacheCap is the default total entry bound (~64k (net, word)
// flips).
const defaultConeCacheCap = 1 << 16

// coneShardHint sizes a shard's map and order ring when it is allocated:
// what a 64-slot map table holds at the runtime's 7/8 load, and more than
// one diagnosis of a 1000-gate circuit stores in a shard, so a private
// store fills without regrowing.
const coneShardHint = 56

// ConeCache is a sharded, bounded store of flips keyed by (net, packed
// pattern word): what flipping the net in that word changes at the
// outputs. Every simulator holds one — a private store unless a cache is
// attached — shared with its forks. CPT stem analysis reads a stem's flip,
// and stuck-at scoring reads the flip of the root of the fault's
// fanout-free region, so within one diagnosis the members of a region
// share one propagation, and scoring reuses the stems extraction flipped.
// Attached to the simulators of repeated diagnoses of devices built from
// one (circuit, test set) workload, as in experiment campaigns, the
// service and the volume pipeline, the same flips serve every device.
//
// Flips are pure functions of the key for a fixed (circuit, patterns)
// binding, so any hit/miss interleaving — including under concurrent
// workers, where a racing first fill may compute an entry twice — yields
// bit-identical results. The first FaultSim attached binds the cache to
// its circuit and pattern count; a mismatched attach is refused (see
// AttachCache).
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
	return &ConeCache{perShard: per}
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
// serving another circuit's flips.
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
	h ^= h >> 29
	return &cc.shards[h%coneShards]
}

// get returns the cached flip and whether the key was present.
func (cc *ConeCache) get(k coneKey) (flip, bool) {
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

// put stores one flip, evicting the shard's oldest entry when the shard is
// full. Storing an existing key is a no-op (first writer wins; values for
// one key are identical by construction).
func (cc *ConeCache) put(k coneKey, v flip) {
	s := cc.shardOf(k)
	s.mu.Lock()
	if s.m == nil {
		hint := min(cc.perShard, coneShardHint)
		s.m = make(map[coneKey]flip, hint)
		s.order = make([]coneKey, 0, hint)
	}
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

// AttachCache makes cc the simulator's flip store, in place of its
// private one, for it and the forks it hands out from then on. The first
// simulator attached binds the cache to its (circuit, pattern count)
// shape; attaching a simulator with a different shape is refused — the
// simulator keeps its private store — and reported by the return value.
// Attaching nil detaches.
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

// flip returns the flip of net r in word w from the simulator's store,
// propagating and storing it on a miss. Probe outcomes are also tallied
// on the simulator itself (fork-local, no atomics) so a request's trace
// can attribute each worker's cache luck.
func (fs *FaultSim) flip(r netlist.NetID, w int) flip {
	store := fs.cache
	if store == nil {
		store = fs.own
	}
	k := coneKey{net: r, word: int32(w)}
	if f, ok := store.get(k); ok {
		fs.probeHits++
		return f
	}
	fs.probeMisses++
	f := fs.newFlip(w, fs.Propagate(w, Force{Net: r, Val: fs.words[w][r].Not()}))
	store.put(k, f)
	return f
}
