// Package compact models test-response compaction and diagnosis from
// compacted fail data. Modern testers rarely observe raw primary outputs:
// an on-chip spatial compactor (X-compact style XOR network) folds hundreds
// of scan-out signals into a handful of pins, and the datalog records
// failing *compactor outputs*. Compaction introduces aliasing — an even
// number of failing POs feeding the same compactor output cancel — so
// diagnosis must reason about compressed syndromes rather than trying to
// invert the compactor.
//
// The package provides the compactor model (XOR parity network with
// X-compact-style distinct signatures per PO), datalog compression, and a
// diagnosis entry point that runs the core effect-cause pipeline with
// evidence in compressed-output space. Experiment T9 measures how
// much localization survives 2:1 … 8:1 compaction.
package compact

import (
	"fmt"
	"math/rand"
	"sort"

	"multidiag/internal/bitset"
	"multidiag/internal/core"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Compactor is a spatial XOR network: compressed output j observes the
// parity of errors on the POs listed in Assign[j].
type Compactor struct {
	NumPOs, NumOut int
	// Assign[j] lists the PO indices XORed into compressed output j.
	Assign [][]int
	// poOuts[p] lists the compressed outputs observing PO p (the PO's
	// signature).
	poOuts [][]int
}

// NewXCompact builds a compactor with numOut outputs in which every PO
// feeds `fanout` distinct compressed outputs (X-compact property: distinct
// POs get distinct signatures where possible, so single-PO errors remain
// distinguishable). Deterministic from seed.
func NewXCompact(numPOs, numOut, fanout int, seed int64) (*Compactor, error) {
	if numOut < 1 || numPOs < 1 {
		return nil, fmt.Errorf("compact: need ≥1 POs and outputs")
	}
	if fanout < 1 {
		fanout = 1
	}
	if fanout > numOut {
		fanout = numOut
	}
	r := rand.New(rand.NewSource(seed))
	cp := &Compactor{
		NumPOs: numPOs, NumOut: numOut,
		Assign: make([][]int, numOut),
		poOuts: make([][]int, numPOs),
	}
	seen := map[string]bool{}
	outs := make([]int, numOut)
	for i := range outs {
		outs[i] = i
	}
	for p := 0; p < numPOs; p++ {
		var sig []int
		for attempt := 0; ; attempt++ {
			r.Shuffle(numOut, func(i, j int) { outs[i], outs[j] = outs[j], outs[i] })
			sig = append([]int(nil), outs[:fanout]...)
			sort.Ints(sig)
			key := fmt.Sprint(sig)
			if !seen[key] || attempt > 32 {
				seen[key] = true
				break
			}
		}
		cp.poOuts[p] = sig
		for _, o := range sig {
			cp.Assign[o] = append(cp.Assign[o], p)
		}
	}
	for j := range cp.Assign {
		sort.Ints(cp.Assign[j])
	}
	return cp, nil
}

// Ratio returns the compression ratio POs:outputs.
func (cp *Compactor) Ratio() float64 { return float64(cp.NumPOs) / float64(cp.NumOut) }

// CompressFails maps a set of failing POs (error parity view) to the set
// of failing compressed outputs.
func (cp *Compactor) CompressFails(poFails bitset.Set) bitset.Set {
	out := bitset.New(cp.NumOut)
	for j, pos := range cp.Assign {
		parity := 0
		for _, p := range pos {
			if poFails.Has(p) {
				parity ^= 1
			}
		}
		if parity == 1 {
			out.Add(j)
		}
	}
	return out
}

// CompressDatalog rewrites a PO-space datalog into compactor-output space.
// Aliased patterns (all fails cancel) silently become passing — exactly the
// information loss real compaction causes.
func (cp *Compactor) CompressDatalog(d *tester.Datalog) *tester.Datalog {
	out := &tester.Datalog{
		CircuitName: d.CircuitName,
		NumPatterns: d.NumPatterns,
		NumPOs:      cp.NumOut,
		Fails:       make(map[int]bitset.Set),
	}
	for p, fails := range d.Fails {
		cf := cp.CompressFails(fails)
		if !cf.Empty() {
			out.Fails[p] = cf
		}
	}
	return out
}

// Diagnose locates defects from a *compressed* datalog with the core
// engine's pipeline, changed only where the compactor sits:
//
//   - extraction back-traces from every PO feeding a failing compressed
//     output (the compactor cannot tell which member PO failed, so all
//     members are effect-cause roots);
//   - candidate syndromes are pushed through the compactor before they are
//     scored, so aliasing affects prediction and observation identically
//     (a pattern whose predicted errors all cancel passes).
//
// Scoring, equivalence classes, the greedy cover and the ranking are
// core.Select's; evidence bits are (pattern, compressed output) pairs.
func Diagnose(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog, cp *Compactor, lambda float64, maxMultiplet int) (res *core.Result, err error) {
	sp := obs.Global().Span("compact.diagnose")
	defer func() {
		if d := sp.End(); res != nil {
			res.Elapsed = d
		}
	}()
	if log.NumPatterns != len(pats) {
		return nil, fmt.Errorf("compact: datalog has %d patterns, test set has %d", log.NumPatterns, len(pats))
	}
	if log.NumPOs != cp.NumOut {
		return nil, fmt.Errorf("compact: datalog has %d outputs, compactor has %d", log.NumPOs, cp.NumOut)
	}
	if cp.NumPOs != len(c.POs) {
		return nil, fmt.Errorf("compact: compactor has %d POs, circuit has %d", cp.NumPOs, len(c.POs))
	}
	poLog := &tester.Datalog{NumPatterns: log.NumPatterns, NumPOs: cp.NumPOs, Fails: make(map[int]bitset.Set, len(log.Fails))}
	for p, outs := range log.Fails {
		pos := bitset.New(cp.NumPOs)
		for _, o := range outs.Members() {
			for _, po := range cp.Assign[o] {
				pos.Add(po)
			}
		}
		poLog.Fails[p] = pos
	}
	seeds, err := core.Seeds(c, pats, poLog)
	if err != nil {
		return nil, err
	}
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		return nil, err
	}
	syns := make([]*fsim.Syndrome, len(seeds))
	for i, f := range seeds {
		raw := fs.SimulateStuckAt(f)
		syn := fsim.NewSyndrome(raw.NumPatterns, cp.NumOut)
		for p, fails := range raw.Fails {
			if fails == nil {
				continue
			}
			if comp := cp.CompressFails(fails); !comp.Empty() {
				syn.Fails[p] = comp
			}
		}
		fs.ReleaseSyndrome(raw)
		syns[i] = syn
	}
	return core.Select(c, seeds, syns, log, core.Config{Lambda: lambda, MaxMultipletSize: maxMultiplet}), nil
}
