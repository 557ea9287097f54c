// Package fsim provides single-fault simulation and effect-cause analysis
// primitives:
//
//   - a packed-parallel single-fault simulator (PPSFP: 64 patterns per pass,
//     one fault at a time, propagation limited to the fault's fan-out cone);
//   - syndrome computation (per-pattern failing-output sets) and full
//     fault-dictionary construction;
//   - exact critical path tracing (CPT) at gate level, the candidate
//     extractor of the effect-cause diagnosis flow.
package fsim

import (
	"fmt"
	"math/bits"
	"slices"
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
// and one packed test set. Patterns are packed once at construction; each
// fault is then simulated with cone-limited propagation against the cached
// fault-free values.
type FaultSim struct {
	c       *netlist.Circuit
	pats    []sim.Pattern
	words   [][]logic.PV64 // words[w][net] fault-free values for word w
	piWords [][]logic.PV64 // packed PI vectors per word
	nWords  int
	// scratch for cone-limited propagation (private per fork)
	cur      []logic.PV64
	touched  []netlist.NetID
	inCone   []bool
	stack    []netlist.NetID
	coneKeys []uint64 // level-sort scratch: Level<<32|NetID
	conePOs  []int32  // PO indices inside the current cone
	poIndex  map[netlist.NetID]int

	// arena recycles syndromes/fail-sets; rootSim points at the simulator
	// owning the shared arena and fork free list (nil for a root). Both
	// are shared by every fork.
	arena    *synArena
	rootSim  *FaultSim
	forkMu   sync.Mutex
	forkFree []*FaultSim

	// cache, when attached, memoizes per-(fault, word) cone results;
	// shared by forks (see AttachCache and ConeCache).
	cache *ConeCache
	// probeHits/probeMisses tally this simulator's own cone-cache probes.
	// Unlike the ConeCache's shared atomic counters these are fork-local
	// plain ints (each fork is single-goroutine by contract), which is what
	// lets per-worker trace spans attribute cache luck without contention.
	probeHits   int64
	probeMisses int64

	// observability handles, resolved once by Observe; nil (no-op) until
	// then, so the uninstrumented path costs one pointer test per counter.
	statSims      *obs.Counter
	statConeEvals *obs.Counter
	statXWords    *obs.Counter
	statConeSize  *obs.Histogram
}

// NewFaultSim packs the pattern set and precomputes fault-free values.
func NewFaultSim(c *netlist.Circuit, pats []sim.Pattern) (*FaultSim, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("fsim: empty pattern set")
	}
	fs := &FaultSim{
		c:       c,
		pats:    pats,
		cur:     make([]logic.PV64, c.NumGates()),
		inCone:  make([]bool, c.NumGates()),
		poIndex: make(map[netlist.NetID]int, len(c.POs)),
		arena:   newSynArena(len(pats), len(c.POs)),
	}
	for i, po := range c.POs {
		fs.poIndex[po] = i
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
		vals := make([]logic.PV64, c.NumGates())
		copy(vals, s.Values())
		fs.words = append(fs.words, vals)
		fs.piWords = append(fs.piWords, piv)
	}
	fs.nWords = len(fs.words)
	return fs, nil
}

// Observe wires the simulator's counters into r (nil r detaches): faults
// simulated, packed gate-word evaluations, X-propagation words, and a
// log₂ histogram of fan-out cone sizes. Counter updates are atomic, so
// one registry may observe simulators on several goroutines.
func (fs *FaultSim) Observe(r *obs.Registry) {
	fs.statSims = r.Counter("fsim.sims")
	fs.statConeEvals = r.Counter("fsim.cone_gate_word_evals")
	fs.statXWords = r.Counter("fsim.xsim_words")
	fs.statConeSize = r.Histogram("fsim.cone_size")
}

// Circuit returns the simulated circuit.
func (fs *FaultSim) Circuit() *netlist.Circuit { return fs.c }

// NumPatterns returns the test-set size.
func (fs *FaultSim) NumPatterns() int { return len(fs.pats) }

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

// PIWord returns the packed primary-input vector for pattern word w
// (shared storage — callers must not mutate). Re-simulation passes — the
// bridge refinement sweep, X-propagation — reuse these instead of
// re-packing the pattern set per hypothesis.
func (fs *FaultSim) PIWord(w int) []logic.PV64 { return fs.piWords[w] }

// GoodPOSet returns the fault-free PO values of pattern p as a bitset of
// POs at logic 1 (X POs are omitted; callers in the diagnosis flow only use
// determinate patterns).
func (fs *FaultSim) GoodPOSet(p int) bitset.Set {
	out := bitset.New(len(fs.c.POs))
	w, slot := p/logic.W, uint(p%logic.W)
	for i, po := range fs.c.POs {
		if fs.words[w][po].Get(slot) == logic.One {
			out.Add(i)
		}
	}
	return out
}

// forceValue returns the packed override for a stuck value.
func forceValue(v1 bool) logic.PV64 {
	if v1 {
		return logic.PVOne
	}
	return logic.PVZero
}

// SimulateStuckAt computes the syndrome of a single stuck-at fault over the
// whole test set using cone-limited propagation. With a cache attached,
// per-word cone results are replayed or filled as a side effect. The
// returned syndrome comes from the simulator's arena; callers on the hot
// path should hand it back with ReleaseSyndrome once folded.
func (fs *FaultSim) SimulateStuckAt(f fault.StuckAt) *Syndrome {
	return fs.simulateForced(f.Net, forceValue(f.Value1), &f)
}

// SimulateOpen computes the syndrome of a net-open (modelled as a stuck
// value, see fault.Open). Logic-level behaviour equals the corresponding
// stuck-at, so opens share its cache entries.
func (fs *FaultSim) SimulateOpen(o fault.Open) *Syndrome {
	eq := fault.StuckAt{Net: o.Net, Value1: o.StuckValue1}
	return fs.simulateForced(o.Net, forceValue(o.StuckValue1), &eq)
}

// SimulateXAt computes, for each pattern, the set of POs that *may* be
// affected by an unknown value at net id: the net is forced to X and POs
// receiving X are reported. This is the X-propagation primitive of the
// consistency check in the diagnosis core.
func (fs *FaultSim) SimulateXAt(nets []netlist.NetID) []bitset.Set {
	force := make(map[netlist.NetID]logic.PV64, len(nets))
	for _, n := range nets {
		force[n] = logic.PVX
	}
	out := make([]bitset.Set, len(fs.pats))
	fs.statXWords.Add(int64(fs.nWords))
	s := sim.New(fs.c)
	for w := 0; w < fs.nWords; w++ {
		if err := s.RunWithOverrides(fs.piWords[w], force); err != nil {
			// Impossible: widths validated at construction.
			panic(err)
		}
		for i, po := range fs.c.POs {
			xm := s.Value(po).XMask()
			if xm == 0 {
				continue
			}
			for slot := uint(0); slot < logic.W; slot++ {
				p := w*logic.W + int(slot)
				if p >= len(fs.pats) {
					break
				}
				if xm>>slot&1 == 1 {
					if out[p] == nil {
						out[p] = bitset.New(len(fs.c.POs))
					}
					out[p].Add(i)
				}
			}
		}
	}
	return out
}

// simulateForced runs cone-limited packed simulation with one net forced
// to a stuck value, comparing POs in the fan-out cone of the forced net
// against the cached fault-free responses. cacheF, when a cache is
// attached, keys per-word result memoization. This is the innermost loop
// of candidate scoring: it evaluates only the fault's output-cone delta —
// the cone gates in topological order — against the cached good-machine
// words, touches no map, allocates nothing besides the pooled syndrome
// (and, when filling a cache, the stored diff slices), and reuses the
// fork-private marking/ordering scratch across candidates.
func (fs *FaultSim) simulateForced(forceNet netlist.NetID, forceVal logic.PV64, cacheF *fault.StuckAt) *Syndrome {
	syn := fs.arena.acquire()
	if fs.cache == nil {
		cacheF = nil
	}

	// Mark the fanout cone of the forced net (iterative DFS, persistent
	// stack/touched scratch).
	fs.touched = append(fs.touched[:0], forceNet)
	fs.stack = append(fs.stack[:0], forceNet)
	fs.inCone[forceNet] = true
	for len(fs.stack) > 0 {
		x := fs.stack[len(fs.stack)-1]
		fs.stack = fs.stack[:len(fs.stack)-1]
		for _, rd := range fs.c.Gates[x].Fanout {
			if !fs.inCone[rd] {
				fs.inCone[rd] = true
				fs.touched = append(fs.touched, rd)
				fs.stack = append(fs.stack, rd)
			}
		}
	}
	defer func() {
		for _, n := range fs.touched {
			fs.inCone[n] = false
		}
	}()

	fs.statSims.Inc()
	fs.statConeSize.Observe(int64(len(fs.touched)))

	// POs inside the cone, by index.
	fs.conePOs = fs.conePOs[:0]
	for i, po := range fs.c.POs {
		if fs.inCone[po] {
			fs.conePOs = append(fs.conePOs, int32(i))
		}
	}
	if len(fs.conePOs) == 0 {
		return syn // fault cannot reach any output
	}

	// Order the cone topologically: sort the touched nets by (level, id)
	// once per fault, so each word pass walks only the cone instead of
	// filtering the full-circuit level order.
	fs.coneKeys = fs.coneKeys[:0]
	for _, n := range fs.touched {
		fs.coneKeys = append(fs.coneKeys, uint64(fs.c.Gates[n].Level)<<32|uint64(uint32(n)))
	}
	slices.Sort(fs.coneKeys)

	for w := 0; w < fs.nWords; w++ {
		if cacheF != nil {
			if diffs, ok := fs.cachedWord(*cacheF, w); ok {
				fs.replayWord(syn, w, diffs)
				continue
			}
		}
		fs.statConeEvals.Add(int64(len(fs.touched)))
		good := fs.words[w]
		// Evaluate only cone gates; values outside the cone are the good
		// values. fs.cur holds faulty values for cone nets.
		for _, key := range fs.coneKeys {
			id := netlist.NetID(uint32(key))
			if id == forceNet {
				fs.cur[id] = forceVal
				continue
			}
			g := &fs.c.Gates[id]
			if g.Type == netlist.Input {
				fs.cur[id] = good[id]
				continue
			}
			fs.cur[id] = evalPackedCone(g.Type, g.Fanin, fs.cur, good, fs.inCone)
		}
		var diffs []poWordDiff
		for _, pi := range fs.conePOs {
			po := fs.c.POs[pi]
			diff := fs.cur[po].DiffKnown(good[po])
			if diff == 0 {
				continue
			}
			if cacheF != nil {
				diffs = append(diffs, poWordDiff{po: pi, diff: diff})
			}
			base := w * logic.W
			for m := diff; m != 0; m &= m - 1 {
				p := base + tz64(m)
				if p >= len(fs.pats) {
					break
				}
				fs.addFail(syn, p, int(pi))
			}
		}
		if cacheF != nil {
			fs.storeWord(*cacheF, w, diffs)
		}
	}
	return syn
}

// evalPackedCone evaluates one gate reading faulty values for fan-in nets
// inside the cone and cached good-machine values for everything else.
func evalPackedCone(t netlist.GateType, fanin []netlist.NetID, cur, good []logic.PV64, inCone []bool) logic.PV64 {
	in := func(f netlist.NetID) logic.PV64 {
		if inCone[f] {
			return cur[f]
		}
		return good[f]
	}
	switch t {
	case netlist.Buf:
		return in(fanin[0])
	case netlist.Not:
		return in(fanin[0]).Not()
	case netlist.And, netlist.Nand:
		acc := in(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.And(in(f))
		}
		if t == netlist.Nand {
			acc = acc.Not()
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := in(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.Or(in(f))
		}
		if t == netlist.Nor {
			acc = acc.Not()
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := in(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.Xor(in(f))
		}
		if t == netlist.Xnor {
			acc = acc.Not()
		}
		return acc
	}
	return logic.PVX
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
