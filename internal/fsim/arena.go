// Scratch arenas for the fault-simulation hot path. A diagnosis scores
// thousands of candidate faults against one packed pattern set; without
// reuse every candidate allocates a syndrome, per-pattern failing-output
// sets, and per-worker propagation scratch, which makes the allocator (and
// the GC assists it triggers on every worker) the real bottleneck of the
// parallel engine. The arenas here recycle all three:
//
//   - syndromes and their failing-output bitsets cycle through a
//     mutex-guarded free list owned by the root simulator (simulations
//     acquire, ReleaseSyndrome recycles), so a chunked scoring pass
//     keeps only O(workers × chunk) syndromes live instead of
//     O(candidates);
//   - forked worker simulators cycle through a free list on the root
//     (AcquireFork / ReleaseFork), so repeated batch calls — the serving
//     batcher's steady state — reuse the same propagation scratch.
//
// Recycled memory never crosses a live boundary: a syndrome is released
// only after its chunk has been folded, and a fork only after its batch
// has completed, both enforced by the callers in this package and
// internal/core. The -race stress tests pin the no-aliasing contract.
package fsim

import (
	"sync"

	"multidiag/internal/bitset"
)

// synArena recycles syndromes for one (pattern count, PO count) shape. It
// is owned by a root FaultSim and shared — via the root pointer — by
// every fork, so any worker may acquire and any folder may release. A
// released syndrome keeps its (zeroed) failing-output bitsets on an
// internal spare list, so the sets recycle with their syndrome and a
// recycled set never travels between goroutines apart from its syndrome.
//
// The free list is a mutex-guarded slice, not a sync.Pool: the population
// is bounded by the scoring engine's in-flight chunk window (O(workers ×
// chunk), ~100 syndromes), and unlike a sync.Pool it survives GC cycles —
// a scoring pass allocates its working set once per simulator lifetime,
// not once per GC.
type synArena struct {
	pats int
	pos  int
	mu   sync.Mutex
	free []*Syndrome // Fails all nil, spare holds zeroed sets
}

func newSynArena(pats, pos int) *synArena {
	return &synArena{pats: pats, pos: pos}
}

// acquire returns an all-passing syndrome, reusing a released one when
// available.
func (a *synArena) acquire() *Syndrome {
	a.mu.Lock()
	var s *Syndrome
	if n := len(a.free); n > 0 {
		s = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	}
	a.mu.Unlock()
	if s != nil {
		return s
	}
	return NewSyndrome(a.pats, a.pos)
}

// release recycles a syndrome and its bitsets. The caller must not retain
// any reference to the syndrome or its Fails entries.
func (a *synArena) release(s *Syndrome) {
	if s == nil || s.NumPatterns != a.pats || s.NumPOs != a.pos {
		return // foreign shape: let the GC have it
	}
	for p, f := range s.Fails {
		if f == nil {
			continue
		}
		f.Clear()
		s.spare = append(s.spare, f)
		s.Fails[p] = nil
	}
	a.mu.Lock()
	a.free = append(a.free, s)
	a.mu.Unlock()
}

// failSet returns a cleared bitset sized for the PO universe, popping the
// syndrome's spare list before allocating.
func (a *synArena) failSet(s *Syndrome) bitset.Set {
	if n := len(s.spare); n > 0 {
		f := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return f
	}
	return bitset.New(a.pos)
}

// ReleaseSyndrome recycles a syndrome produced by this simulator (or any
// of its forks) back into the shared arena. The caller must not touch the
// syndrome afterwards. Releasing nil is a no-op.
func (fs *FaultSim) ReleaseSyndrome(s *Syndrome) { fs.arena.release(s) }

// addFail records a failing (pattern, PO) bit using the syndrome's
// recycled fail sets.
func (fs *FaultSim) addFail(syn *Syndrome, p, po int) {
	if syn.Fails[p] == nil {
		syn.Fails[p] = fs.arena.failSet(syn)
	}
	syn.Fails[p].Add(po)
}

// AcquireFork returns a worker simulator sharing fs's immutable packed
// state, reusing scratch from the root's free list when available. The
// fork inherits fs's cache binding and observability handles at acquire
// time (a pooled fork may have been released by a diagnosis with different
// handles). Release it with ReleaseFork when the batch is done.
func (fs *FaultSim) AcquireFork() *FaultSim {
	r := fs.root()
	r.forkMu.Lock()
	var w *FaultSim
	if n := len(r.forkFree); n > 0 {
		w = r.forkFree[n-1]
		r.forkFree = r.forkFree[:n-1]
	}
	r.forkMu.Unlock()
	if w == nil {
		return fs.Fork()
	}
	// Refresh the shared handles: the pooled scratch (cur, inCone, stack,
	// cone order) carries over, everything identity-bearing is re-copied
	// from the acquiring simulator.
	w.cache = fs.cache
	w.probeHits, w.probeMisses = 0, 0
	w.statSims = fs.statSims
	w.statConeEvals = fs.statConeEvals
	w.statXWords = fs.statXWords
	w.statConeSize = fs.statConeSize
	return w
}

// ReleaseFork returns a fork acquired with AcquireFork (or created with
// Fork) to the root's free list for reuse by a later batch. The fork must
// not be used after release.
func (fs *FaultSim) ReleaseFork(w *FaultSim) {
	if w == nil || w == fs {
		return
	}
	r := fs.root()
	r.forkMu.Lock()
	r.forkFree = append(r.forkFree, w)
	r.forkMu.Unlock()
}

// root resolves the simulator owning the shared arenas (itself for a
// simulator built by NewFaultSim).
func (fs *FaultSim) root() *FaultSim {
	if fs.rootSim != nil {
		return fs.rootSim
	}
	return fs
}
