package fsim

import (
	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
)

// PFSFP is the dual packing of PPSFP: one *pattern* per pass, 64 *faults*
// per word. Slot 0 carries the fault-free machine; slots 1..63 each carry
// one faulty machine whose fault site is overridden after gate evaluation.
//
// For fault-grading a large universe against few patterns (the dictionary
// build, diagnostic pattern generation) PFSFP wins because one full-circuit
// evaluation grades 63 faults; for syndrome extraction over a long test set
// PPSFP's cone-limited propagation wins. Both are provided and cross-tested
// against each other.
type PFSFP struct {
	c    *netlist.Circuit
	vals []logic.PV64
}

// NewPFSFP creates a parallel-fault simulator for the finalized circuit.
func NewPFSFP(c *netlist.Circuit) *PFSFP {
	if !c.Finalized() {
		panic("fsim: circuit not finalized")
	}
	return &PFSFP{c: c, vals: make([]logic.PV64, c.NumGates())}
}

// DetectBatch simulates pattern p against up to 63 stuck-at faults and
// returns, for each fault, the bitmask-free detection verdict plus the set
// of failing PO indices. faults beyond 63 are an error by contract; callers
// chunk the universe.
func (ps *PFSFP) DetectBatch(p sim.Pattern, faults []fault.StuckAt) ([]bitsetLite, error) {
	if len(faults) > logic.W-1 {
		faults = faults[:logic.W-1]
	}
	if len(p) != len(ps.c.PIs) {
		return nil, errWidth(len(p), len(ps.c.PIs))
	}
	// Per-net override masks: slot i+1 forces faults[i].
	type ov struct {
		setOne  uint64 // slots forced to 1
		setZero uint64 // slots forced to 0
	}
	overrides := make(map[netlist.NetID]ov, len(faults))
	for i, f := range faults {
		o := overrides[f.Net]
		m := uint64(1) << uint(i+1)
		if f.Value1 {
			o.setOne |= m
		} else {
			o.setZero |= m
		}
		overrides[f.Net] = o
	}
	// All slots share the same PI values (replicated).
	for i, pi := range ps.c.PIs {
		var v logic.PV64
		switch p[i] {
		case logic.Zero:
			v = logic.PVZero
		case logic.One:
			v = logic.PVOne
		default:
			v = logic.PVX
		}
		if o, ok := overrides[pi]; ok {
			v = applyOverride(v, o.setOne, o.setZero)
		}
		ps.vals[pi] = v
	}
	for _, id := range ps.c.LevelOrder() {
		g := &ps.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		v := sim.EvalPacked(g.Type, g.Fanin, ps.vals)
		if o, ok := overrides[id]; ok {
			v = applyOverride(v, o.setOne, o.setZero)
		}
		ps.vals[id] = v
	}
	// Compare each fault slot to slot 0.
	out := make([]bitsetLite, len(faults))
	for poIdx, po := range ps.c.POs {
		v := ps.vals[po]
		goodBit := v.Bits() & 1
		goodKnown := v.KnownMask() & 1
		if goodKnown == 0 {
			continue // fault-free X: no detection credit at this PO
		}
		bits := v.Bits()
		known := v.KnownMask()
		for i := range faults {
			slot := uint(i + 1)
			if known>>slot&1 == 0 {
				continue
			}
			if (bits >> slot & 1) != goodBit {
				out[i] = append(out[i], poIdx)
			}
		}
	}
	return out, nil
}

// bitsetLite is a tiny failing-PO index list (names avoid a bitset alloc
// per fault per pattern in the grading loop).
type bitsetLite []int

func applyOverride(v logic.PV64, setOne, setZero uint64) logic.PV64 {
	// Force slots in setOne to 1 and setZero to 0 without touching others.
	v.V1 |= setOne
	v.V0 &^= setOne
	v.V0 |= setZero
	v.V1 &^= setZero
	return v
}

type errWidthT struct{ got, want int }

func errWidth(got, want int) error { return errWidthT{got, want} }

func (e errWidthT) Error() string {
	return "fsim: pattern width mismatch"
}

// GradePatterns computes, for every fault in the universe, whether any of
// the given patterns detects it — PFSFP-packed (64-fault batches). Returns
// the per-fault detection flags. This is the engine behind N-detect
// counting and diagnostic pattern evaluation.
func GradePatterns(c *netlist.Circuit, pats []sim.Pattern, universe []fault.StuckAt) ([]bool, error) {
	ps := NewPFSFP(c)
	det := make([]bool, len(universe))
	for base := 0; base < len(universe); base += logic.W - 1 {
		end := base + logic.W - 1
		if end > len(universe) {
			end = len(universe)
		}
		chunk := universe[base:end]
		for _, p := range pats {
			fails, err := ps.DetectBatch(p, chunk)
			if err != nil {
				return nil, err
			}
			for i, f := range fails {
				if len(f) > 0 {
					det[base+i] = true
				}
			}
		}
	}
	return det, nil
}

// DetectionCounts returns, per fault, the number of patterns that detect
// it (the N-detect profile of a test set).
func DetectionCounts(c *netlist.Circuit, pats []sim.Pattern, universe []fault.StuckAt) ([]int, error) {
	ps := NewPFSFP(c)
	counts := make([]int, len(universe))
	for base := 0; base < len(universe); base += logic.W - 1 {
		end := base + logic.W - 1
		if end > len(universe) {
			end = len(universe)
		}
		chunk := universe[base:end]
		for _, p := range pats {
			fails, err := ps.DetectBatch(p, chunk)
			if err != nil {
				return nil, err
			}
			for i, f := range fails {
				if len(f) > 0 {
					counts[base+i]++
				}
			}
		}
	}
	return counts, nil
}
