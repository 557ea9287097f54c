// Package fsim provides single-fault simulation and effect-cause analysis
// primitives, all on one forced-propagation kernel (FaultSim.Propagate:
// 64 patterns per word, event-driven through the forced nets' fanout
// against cached fault-free words), whose flips of one net in one word
// are memoized in a store shared by CPT and stuck-at scoring (ConeCache):
//
//   - a packed-parallel single-fault simulator (PPSFP: one fault at a
//     time), syndrome computation (per-pattern failing-output sets) and
//     full fault-dictionary construction;
//   - X-propagation from a set of sites, the diagnosis X-masking check;
//   - exact critical path tracing (CPT) at gate level, the candidate
//     extractor of the effect-cause diagnosis flow.
package fsim

import (
	"fmt"
	"math/bits"
	"sync"

	"multidiag/internal/bitset"
	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
)

// Syndrome is the observable behaviour of a fault under a test set: for
// every pattern, the set of primary outputs (by PO index) where the faulty
// response differs from the fault-free response.
type Syndrome struct {
	NumPatterns int
	NumPOs      int
	// Fails[p] is nil when pattern p passes; otherwise the failing PO set.
	Fails []bitset.Set
	// spare holds zeroed fail sets detached by an arena release, reused by
	// the next simulation instead of allocating. Keeping them attached to
	// the syndrome (rather than in a shared pool) means recycled sets never
	// cross goroutines separately from their syndrome.
	spare []bitset.Set
}

// NewSyndrome returns an all-passing syndrome.
func NewSyndrome(numPatterns, numPOs int) *Syndrome {
	return &Syndrome{NumPatterns: numPatterns, NumPOs: numPOs, Fails: make([]bitset.Set, numPatterns)}
}

// AddFail records that pattern p fails at PO index po.
func (s *Syndrome) AddFail(p, po int) {
	if s.Fails[p] == nil {
		s.Fails[p] = bitset.New(s.NumPOs)
	}
	s.Fails[p].Add(po)
}

// FailingPatterns returns the indices of failing patterns in order.
func (s *Syndrome) FailingPatterns() []int {
	var out []int
	for p, f := range s.Fails {
		if f != nil && !f.Empty() {
			out = append(out, p)
		}
	}
	return out
}

// Detected reports whether any pattern fails.
func (s *Syndrome) Detected() bool { return len(s.FailingPatterns()) > 0 }

// NumFailBits returns the total number of (pattern, failing PO) pairs.
func (s *Syndrome) NumFailBits() int {
	n := 0
	for _, f := range s.Fails {
		if f != nil {
			n += f.Count()
		}
	}
	return n
}

// Equal reports whether two syndromes are identical.
func (s *Syndrome) Equal(t *Syndrome) bool {
	if s.NumPatterns != t.NumPatterns {
		return false
	}
	for p := 0; p < s.NumPatterns; p++ {
		a, b := s.Fails[p], t.Fails[p]
		switch {
		case a == nil && b == nil:
		case a == nil:
			if !b.Empty() {
				return false
			}
		case b == nil:
			if !a.Empty() {
				return false
			}
		default:
			if !a.Equal(b) {
				return false
			}
		}
	}
	return true
}

// FaultSim is a packed-parallel single-fault simulator bound to one circuit
// and one packed test set. Patterns are packed and simulated fault-free
// once at construction; every faulty machine is then a forced propagation
// (Propagate) against the cached fault-free words.
type FaultSim struct {
	c      *netlist.Circuit
	pats   []sim.Pattern
	words  [][]logic.PV64 // words[w][net] fault-free values for word w
	nWords int
	// Per-circuit tables shared by forks: the PO index of each net (-1
	// when it is no output) and the number of fan-in references to each
	// net (more than one makes it a fanout stem).
	poOf []int32
	refs []int32

	// Propagate scratch (private per fork): cur[n] is net n's value in
	// the current propagation where valid[n] == gen; queued[n] == gen
	// marks a net waiting on its level list (or forced, so never
	// evaluated); reached collects the POs whose word changed.
	cur     []logic.PV64
	valid   []uint32
	queued  []uint32
	gen     uint32
	levels  [][]netlist.NetID
	reached []POWord
	// cpt is the critical path tracing scratch (see CriticalWord).
	cpt cptScratch

	// arena recycles syndromes/fail-sets; rootSim points at the simulator
	// owning the shared arena and fork free list (nil for a root). Both
	// are shared by every fork.
	arena    *synArena
	rootSim  *FaultSim
	forkMu   sync.Mutex
	forkFree []*FaultSim

	// cache, when attached, is the flip store (see ConeCache) in place
	// of own, the private store NewFaultSim made; both are shared by forks.
	cache *ConeCache
	own   *ConeCache
	// probeHits/probeMisses tally this simulator's own flip-store probes.
	// Unlike the ConeCache's shared atomic counters these are fork-local
	// plain ints (each fork is single-goroutine by contract), which is what
	// lets per-worker trace spans attribute cache luck without contention.
	probeHits   int64
	probeMisses int64

	// stats holds the observability handles, resolved once by Observe;
	// nil (no-op) until then, so the uninstrumented path costs one
	// pointer test per counter.
	stats simStats
}

// simStats are a simulator's counters, shared by its forks.
type simStats struct {
	sims, gateEvals, xWords, traces, stemFlips *obs.Counter
}

// NewFaultSim packs the pattern set and precomputes fault-free values.
func NewFaultSim(c *netlist.Circuit, pats []sim.Pattern) (*FaultSim, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("fsim: empty pattern set")
	}
	n := c.NumGates()
	fs := &FaultSim{
		c:     c,
		pats:  pats,
		poOf:  make([]int32, n),
		refs:  make([]int32, n),
		arena: newSynArena(len(pats), len(c.POs)),
		own:   NewConeCache(0),
	}
	fs.newScratch()
	for i := range fs.poOf {
		fs.poOf[i] = -1
	}
	for i, po := range c.POs {
		fs.poOf[po] = int32(i)
	}
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			fs.refs[f]++
		}
	}
	s := sim.New(c)
	for base := 0; base < len(pats); base += logic.W {
		end := base + logic.W
		if end > len(pats) {
			end = len(pats)
		}
		piv, _, err := s.PackPatterns(pats[base:end])
		if err != nil {
			return nil, err
		}
		if err := s.Run(piv); err != nil {
			return nil, err
		}
		fs.words = append(fs.words, append([]logic.PV64(nil), s.Values()...))
	}
	fs.nWords = len(fs.words)
	return fs, nil
}

// newScratch allocates the simulator's private propagation scratch.
func (fs *FaultSim) newScratch() {
	n := fs.c.NumGates()
	fs.cur = make([]logic.PV64, n)
	fs.valid = make([]uint32, n)
	fs.queued = make([]uint32, n)
	fs.levels = make([][]netlist.NetID, fs.c.MaxLevel()+1)
}

// Observe wires the simulator's counters into r (nil r detaches): stuck-at
// scoring simulations, gate-word evaluations performed by Propagate,
// X-propagation words, and the critical path tracer's traced patterns and
// stem propagations. Counter updates are atomic, so one registry may
// observe simulators on several goroutines.
func (fs *FaultSim) Observe(r *obs.Registry) {
	fs.stats = simStats{
		sims:      r.Counter("fsim.sims"),
		gateEvals: r.Counter("fsim.cone_gate_word_evals"),
		xWords:    r.Counter("fsim.xsim_words"),
		traces:    r.Counter("cpt.traces"),
		stemFlips: r.Counter("cpt.stem_flips"),
	}
}

// Circuit returns the simulated circuit.
func (fs *FaultSim) Circuit() *netlist.Circuit { return fs.c }

// NumPatterns returns the test-set size.
func (fs *FaultSim) NumPatterns() int { return len(fs.pats) }

// NumWords returns the number of 64-pattern words the test set packs into.
func (fs *FaultSim) NumWords() int { return fs.nWords }

// Patterns returns the test set (shared storage).
func (fs *FaultSim) Patterns() []sim.Pattern { return fs.pats }

// GoodValue returns the fault-free value of net id under pattern p.
func (fs *FaultSim) GoodValue(id netlist.NetID, p int) logic.Value {
	return fs.words[p/logic.W][id].Get(uint(p % logic.W))
}

// GoodWord returns the packed fault-free values of net id for pattern word
// w (patterns w·64 … w·64+63).
func (fs *FaultSim) GoodWord(id netlist.NetID, w int) logic.PV64 {
	return fs.words[w][id]
}

// Force pins one net to a packed word in Propagate.
type Force struct {
	Net netlist.NetID
	Val logic.PV64
}

// POWord is one primary output's faulty word, by PO index.
type POWord struct {
	PO  int
	Val logic.PV64
}

// Propagate is the forced-propagation kernel behind every faulty machine
// the engine simulates: stuck-at scoring, the X-masking check, dominant
// bridge fits and CPT stem analysis. It pins each forced net to its word
// in pattern word w (a net listed twice keeps its last word; a forced net
// is never re-evaluated, even downstream of another), propagates event by
// event through their fanout in level order — evaluating only gates with
// a fanin word that differs from the fault-free one, against the cached
// fault-free words everywhere else — and returns the faulty word of every
// PO whose word differs from the fault-free word, in no particular order.
// The result is scratch, valid until the simulator's next propagation.
func (fs *FaultSim) Propagate(w int, forces ...Force) []POWord {
	good := fs.words[w]
	gen := fs.nextGen()
	fs.reached = fs.reached[:0]
	for _, f := range forces {
		fs.cur[f.Net], fs.queued[f.Net] = f.Val, gen
	}
	pending, lo := 0, len(fs.levels)
	for _, f := range forces {
		n := f.Net
		if fs.valid[n] == gen {
			continue // listed twice
		}
		fs.valid[n] = gen
		if v := fs.cur[n]; v != good[n] {
			pending += fs.changed(n, v, gen)
			lo = min(lo, fs.c.Gates[n].Level+1)
		}
	}
	evals := 0
	for l := lo; pending > 0; l++ {
		for _, n := range fs.levels[l] {
			g := &fs.c.Gates[n]
			for _, f := range g.Fanin {
				if fs.valid[f] != gen {
					fs.cur[f], fs.valid[f] = good[f], gen
				}
			}
			v := sim.EvalPacked(g.Type, g.Fanin, fs.cur)
			fs.cur[n], fs.valid[n] = v, gen
			if v != good[n] {
				pending += fs.changed(n, v, gen)
			}
		}
		evals += len(fs.levels[l])
		pending -= len(fs.levels[l])
		fs.levels[l] = fs.levels[l][:0]
	}
	fs.stats.gateEvals.Add(int64(evals))
	return fs.reached
}

// nextGen starts a propagation: a fresh stamp invalidates every cur and
// queued entry at once (the stamps are cleared when it wraps).
func (fs *FaultSim) nextGen() uint32 {
	fs.gen++
	if fs.gen == 0 {
		clear(fs.valid)
		clear(fs.queued)
		fs.gen = 1
	}
	return fs.gen
}

// changed records that net n's word v differs from its fault-free word:
// an output joins the result, and each reader not yet queued joins its
// level's list. It returns the number of readers queued.
func (fs *FaultSim) changed(n netlist.NetID, v logic.PV64, gen uint32) int {
	if i := fs.poOf[n]; i >= 0 {
		fs.reached = append(fs.reached, POWord{PO: int(i), Val: v})
	}
	queued := 0
	for _, rd := range fs.c.Gates[n].Fanout {
		if fs.queued[rd] != gen {
			fs.queued[rd] = gen
			l := fs.c.Gates[rd].Level
			fs.levels[l] = append(fs.levels[l], rd)
			queued++
		}
	}
	return queued
}

// forceValue returns the packed override for a stuck value.
func forceValue(v1 bool) logic.PV64 {
	if v1 {
		return logic.PVOne
	}
	return logic.PVZero
}

// SimulateStuckAt computes the syndrome of a single stuck-at fault over the
// whole test set. A fault reaches the outputs only through the root of its
// fanout-free region: the first net on its unique fanout path that is a
// primary output or has other than one fan-in reference — a stem, whose
// flip CPT may have stored already, or an output (a PO ends the walk even
// when a gate reads it, or its own failures would be lost). So, per
// pattern word, the fault's effect is walked up that path one gate at a
// time, side inputs at their fault-free words, to the root's faulty word
// F, and the outputs fail where the root's flip (see flip) differs,
// masked by F.DiffKnown(good[root]): the patterns on which F is the known
// complement of the root's fault-free word. No pattern outside the mask
// can fail. The packed logic is dual-rail ("may be 0", "may be 1"), so
// gate evaluation is monotone: where the root's faulty word is X, every
// downstream faulty value is a superset of the fault-free one, and where
// its fault-free word is X a subset, so no output shows a known
// difference there. The walk stops early once the effect has no known
// difference left. Propagate runs only to fill the flip store. The
// returned syndrome comes from the simulator's arena; callers on the hot
// path should hand it back with ReleaseSyndrome once folded.
func (fs *FaultSim) SimulateStuckAt(f fault.StuckAt) *Syndrome {
	syn := fs.arena.acquire()
	fs.stats.sims.Inc()
	stuck := forceValue(f.Value1)
	evals := 0
	for w := 0; w < fs.nWords; w++ {
		good := fs.words[w]
		n, v := f.Net, stuck
		for v.DiffKnown(good[n]) != 0 && fs.poOf[n] < 0 && fs.refs[n] == 1 {
			rd := fs.c.Gates[n].Fanout[0]
			g := &fs.c.Gates[rd]
			for _, in := range g.Fanin {
				fs.cur[in] = good[in]
			}
			fs.cur[n] = v
			n, v = rd, sim.EvalPacked(g.Type, g.Fanin, fs.cur)
			evals++
		}
		mask := v.DiffKnown(good[n])
		if mask == 0 {
			continue
		}
		fl := fs.flip(n, w)
		for i := 0; i < fl.len(); i++ {
			if d := fl.known(i) & mask; d != 0 {
				fs.addFails(syn, w, fl.po(i), d)
			}
		}
	}
	fs.stats.gateEvals.Add(int64(evals))
	return syn
}

// SimulateOpen computes the syndrome of a net-open (modelled as a stuck
// value, see fault.Open). Logic-level behaviour equals the corresponding
// stuck-at, so opens share its cache entries.
func (fs *FaultSim) SimulateOpen(o fault.Open) *Syndrome {
	return fs.SimulateStuckAt(fault.StuckAt{Net: o.Net, Value1: o.StuckValue1})
}

// SimulateXAt computes, for each pattern, the set of POs that *may* be
// affected by an unknown value at the given nets: the nets are forced to
// X together, and every PO left at X is reported — including a PO that is
// X in the fault-free machine already. This is the X-propagation
// primitive of the consistency check in the diagnosis core.
func (fs *FaultSim) SimulateXAt(nets []netlist.NetID) []bitset.Set {
	forces := make([]Force, len(nets))
	for i, n := range nets {
		forces[i] = Force{Net: n, Val: logic.PVX}
	}
	out := make([]bitset.Set, len(fs.pats))
	xs := make([]uint64, len(fs.c.POs))
	fs.stats.xWords.Add(int64(fs.nWords))
	for w := 0; w < fs.nWords; w++ {
		for i, po := range fs.c.POs {
			xs[i] = fs.words[w][po].XMask()
		}
		for _, r := range fs.Propagate(w, forces...) {
			xs[r.PO] = r.Val.XMask()
		}
		for i, m := range xs {
			for ; m != 0; m &= m - 1 {
				p := w*logic.W + tz64(m)
				if p >= len(fs.pats) {
					break
				}
				if out[p] == nil {
					out[p] = bitset.New(len(fs.c.POs))
				}
				out[p].Add(i)
			}
		}
	}
	return out
}

// addFails records PO po failing on the patterns of word w set in diff.
func (fs *FaultSim) addFails(syn *Syndrome, w, po int, diff uint64) {
	for ; diff != 0; diff &= diff - 1 {
		p := w*logic.W + tz64(diff)
		if p >= len(fs.pats) {
			break
		}
		fs.addFail(syn, p, po)
	}
}

// tz64 returns the position of m's lowest set bit.
func tz64(m uint64) int { return bits.TrailingZeros64(m) }

// Coverage runs the full stuck-at universe and returns (detected, total).
// The universe is fault-parallel across GOMAXPROCS workers; the count is
// identical to a sequential sweep.
func Coverage(c *netlist.Circuit, pats []sim.Pattern, faults []fault.StuckAt) (int, int, error) {
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		return 0, 0, err
	}
	det := 0
	for _, syn := range fs.SimulateStuckAtBatch(faults, 0) {
		if syn.Detected() {
			det++
		}
	}
	return det, len(faults), nil
}

// Dictionary is a full-response cause-effect fault dictionary: the syndrome
// of every fault in a universe.
type Dictionary struct {
	Faults    []fault.StuckAt
	Syndromes []*Syndrome
}

// BuildDictionary simulates every fault in the universe and stores its
// syndrome. The cost is O(|faults| × |patterns|) simulations, which is what
// makes dictionary methods expensive at scale — exactly the cost the
// effect-cause approach avoids (see the baseline comparison experiments).
func BuildDictionary(c *netlist.Circuit, pats []sim.Pattern, faults []fault.StuckAt) (*Dictionary, error) {
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		return nil, err
	}
	return &Dictionary{Faults: faults, Syndromes: fs.SimulateStuckAtBatch(faults, 0)}, nil
}

// Lookup returns the indices of dictionary faults whose syndrome exactly
// matches the observed syndrome.
func (d *Dictionary) Lookup(obs *Syndrome) []int {
	var out []int
	for i, s := range d.Syndromes {
		if s.Equal(obs) {
			out = append(out, i)
		}
	}
	return out
}
