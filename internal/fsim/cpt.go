package fsim

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"multidiag/internal/bitset"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
)

// Critical path tracing (CPT).
//
// A net n is *critical* with respect to primary output po under pattern p
// when flipping n's fault-free value (at the net, i.e. on all of its fanout
// branches simultaneously) flips the value observed at po. Critical nets are
// exactly the sites where a stuck-at fault (stuck at the complement of the
// fault-free value) would be observed at po — the effect-cause candidate set
// for a failing output.
//
// CriticalWord traces all requested (pattern, output) pairs of one
// 64-pattern word together, on the simulator's fault-free words, as one
// mask of patterns per net:
//
//   - a fanout-free net is critical where its reader is critical and the
//     net is a sensitive input of it, crit[n] = crit[reader] &
//     sens(reader, n), which composes exactly along the unique path;
//   - a fanout stem is resolved by stem analysis: one Propagate forcing
//     it to the complement of its fault-free word yields its difference
//     word at every output at once. This is exact by definition,
//     including the reconvergent self-masking that classical approximate
//     CPT mishandles.
//
// The approximate variant (classical CPT, the T5 ablation) resolves a
// stem like a fanout-free net, ORing over its readers, and propagates
// nothing: multiple-path self-masking is missed and single-path masking
// over-counted.

// cptScratch is CriticalWord's scratch, kept on the simulator and reused
// across words and calls.
type cptScratch struct {
	targets []uint64 // per PO: the word's patterns to trace it on
	base    []int32  // per traced PO: where its patterns' bits start in a flips row
	traced  []int    // traced PO indices, ascending
	inCone  []bool   // union fan-in cone of the traced POs (cleared after use)
	stack   []netlist.NetID
	order   []netlist.NetID // the cone by descending level
	stems   []netlist.NetID // the cone's fanout stems (exact tracing)
	row     []int32         // per net: its row in flips (stems only)
	flips   []uint64        // per stem: one bit per traced (pattern, PO)
	crit    []uint64        // per net: critical patterns for the current PO
	union   []uint64        // per net: critical patterns for any traced PO
	members []int
}

// stemChunk is the number of stems a worker claims at a time.
const stemChunk = 8

// CriticalWord traces the failing outputs of pattern word w: fails[p] is
// the set of PO indices to trace on pattern p (nil or empty: pattern p is
// not traced; patterns outside word w are ignored). It returns, per net,
// the mask of the word's patterns (bit s is pattern w·64+s) on which the
// net is critical for at least one of the pattern's traced outputs. The
// candidate a critical net yields is the stuck-at of the complement of its
// fault-free value (GoodWord). perPO, when non-nil, is called once per
// traced output, in PO order, with that output's own masks. Both are
// scratch, valid until the simulator's next trace.
//
// A pattern carrying X is traced three-valued: a net that is X is never
// critical, and a stem is critical where flipping it changes the output's
// value, to or from X included.
//
// Exact tracing shards its stem propagations across up to workers
// simulators (this one and forks of it); each stem's verdict is a pure
// function of the stem, so the result is identical at any worker count.
// Once ctx is done no further stem is propagated and the result is
// incomplete; the caller reports ctx.Err().
func (fs *FaultSim) CriticalWord(ctx context.Context, w int, fails []bitset.Set, approx bool, workers int, perPO func(po int, crit []uint64)) []uint64 {
	t := &fs.cpt
	c := fs.c
	if t.crit == nil {
		n := c.NumGates()
		t.targets = make([]uint64, len(c.POs))
		t.base = make([]int32, len(c.POs))
		t.inCone = make([]bool, n)
		t.row = make([]int32, n)
		t.crit = make([]uint64, n)
		t.union = make([]uint64, n)
	}
	good := fs.words[w]
	clear(t.targets)
	clear(t.crit)
	clear(t.union)
	var traced uint64
	for s := 0; s < logic.W && w*logic.W+s < len(fails); s++ {
		if set := fails[w*logic.W+s]; set != nil {
			t.members = set.AppendMembers(t.members[:0])
			for _, po := range t.members {
				t.targets[po] |= 1 << uint(s)
				traced |= 1 << uint(s)
			}
		}
	}
	fs.stats.traces.Add(int64(bits.OnesCount64(traced)))
	t.traced = t.traced[:0]
	pairs := 0
	for i, m := range t.targets {
		if m != 0 {
			t.base[i] = int32(pairs)
			pairs += bits.OnesCount64(m)
			t.traced = append(t.traced, i)
		}
	}
	if len(t.traced) == 0 {
		return t.union
	}

	// The union fan-in cone of the traced outputs, by descending level,
	// and its stems.
	t.stack = t.stack[:0]
	for _, i := range t.traced {
		t.inCone[c.POs[i]] = true
		t.stack = append(t.stack, c.POs[i])
	}
	for len(t.stack) > 0 {
		x := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		for _, f := range c.Gates[x].Fanin {
			if !t.inCone[f] {
				t.inCone[f] = true
				t.stack = append(t.stack, f)
			}
		}
	}
	t.order, t.stems = t.order[:0], t.stems[:0]
	ord := c.LevelOrder()
	for i := len(ord) - 1; i >= 0; i-- {
		if id := ord[i]; t.inCone[id] {
			t.inCone[id] = false
			t.order = append(t.order, id)
			if !approx && fs.refs[id] > 1 {
				t.row[id] = int32(len(t.stems))
				t.stems = append(t.stems, id)
			}
		}
	}
	rowWords := (pairs + 63) / 64
	if !approx {
		fs.flipStems(ctx, w, workers, rowWords)
	}

	// One backward sweep over the cone per traced output. A reader always
	// sits at a higher level, so its mask is final when its inputs read
	// it; nets outside the cone keep the zero they were cleared to.
	for _, i := range t.traced {
		po := c.POs[i]
		for _, id := range t.order {
			var m uint64
			switch {
			case id == po:
				m = t.targets[i]
			case !approx && fs.refs[id] > 1:
				m = unpackBits(t.flips[int(t.row[id])*rowWords:], int(t.base[i]), t.targets[i])
			default:
				for _, rd := range c.Gates[id].Fanout {
					if t.crit[rd] != 0 {
						m |= t.crit[rd] & fs.sensitive(good, rd, id)
					}
				}
			}
			t.crit[id] = m
			t.union[id] |= m
		}
		if perPO != nil {
			perPO(i, t.crit)
		}
	}
	return t.union
}

// flipStems fills the stem table: per stem of the cone, its flip (read
// from the store, or propagated and stored: the stem forced to the
// complement of its fault-free word) and, in the stem's row, one bit per
// traced (pattern, output) pair: whether the output's three-valued word
// changed on that pattern.
func (fs *FaultSim) flipStems(ctx context.Context, w, workers, rowWords int) {
	t := &fs.cpt
	if need := len(t.stems) * rowWords; cap(t.flips) < need {
		t.flips = make([]uint64, need)
	} else {
		t.flips = t.flips[:need]
		clear(t.flips)
	}
	fs.stats.stemFlips.Add(int64(len(t.stems)))
	var next atomic.Int64
	run := func(wk int, k *FaultSim) {
		prof.Worker(ctx, wk, "", func(ctx context.Context, _ prof.Phase) {
			for ctx.Err() == nil {
				start := int(next.Add(stemChunk)) - stemChunk
				if start >= len(t.stems) {
					return
				}
				for i := start; i < min(start+stemChunk, len(t.stems)); i++ {
					row := t.flips[i*rowWords : (i+1)*rowWords]
					fl := k.flip(t.stems[i], w)
					for j := 0; j < fl.len(); j++ {
						if po := fl.po(j); t.targets[po] != 0 {
							packBits(row, int(t.base[po]), t.targets[po], fl.diff(j))
						}
					}
				}
			}
		})
	}
	var wg sync.WaitGroup
	for wk := 1; wk < min(workers, (len(t.stems)+stemChunk-1)/stemChunk); wk++ {
		k := fs.AcquireFork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fs.ReleaseFork(k)
			run(wk, k)
		}()
	}
	run(0, fs)
	wg.Wait()
}

// packBits stores, from bit k of row on, one bit per pattern of mask:
// whether diff has it.
func packBits(row []uint64, k int, mask, diff uint64) {
	for ; mask != 0; mask &= mask - 1 {
		if diff&mask&-mask != 0 {
			row[k/64] |= 1 << uint(k%64)
		}
		k++
	}
}

// unpackBits inverts packBits: the patterns of mask whose bit is set.
func unpackBits(row []uint64, k int, mask uint64) (m uint64) {
	for ; mask != 0; mask &= mask - 1 {
		if row[k/64]>>uint(k%64)&1 == 1 {
			m |= mask & -mask
		}
		k++
	}
	return m
}

// sensitive returns the mask of the word's patterns on which flipping
// input net in of gate g, its other inputs fault-free, flips g's
// determinate output.
func (fs *FaultSim) sensitive(good []logic.PV64, g, in netlist.NetID) uint64 {
	gate := &fs.c.Gates[g]
	for _, f := range gate.Fanin {
		fs.cur[f] = good[f]
	}
	fs.cur[in] = good[in].Not()
	return sim.EvalPacked(gate.Type, gate.Fanin, fs.cur).DiffKnown(good[g])
}

// BruteForceCritical computes criticality by flipping every net in po's
// fan-in cone and fully re-simulating. It is the executable specification
// the CPT tests check CriticalWord against; O(cone²), so no engine path
// uses it.
func BruteForceCritical(c *netlist.Circuit, p sim.Pattern, po netlist.NetID) ([]bool, error) {
	base, err := sim.EvalScalar(c, p, nil)
	if err != nil {
		return nil, err
	}
	cone := c.FaninCone(po)
	crit := make([]bool, c.NumGates())
	for id := range c.Gates {
		n := netlist.NetID(id)
		if !cone[n] {
			continue
		}
		forced, err := sim.EvalScalar(c, p, map[netlist.NetID]logic.Value{n: base[n].Not()})
		if err != nil {
			return nil, err
		}
		if forced[po] != base[po] {
			crit[n] = true
		}
	}
	return crit, nil
}
