// Package sim provides fault-free simulation of gate-level circuits in two
// forms:
//
//   - a levelized, 64-way packed-parallel three-valued simulator (Simulator)
//     that evaluates 64 patterns per pass and is the workhorse behind fault
//     simulation, diagnosis and the experiment harness;
//   - a scalar three-valued evaluator (EvalScalar) used where per-pattern
//     flexibility matters more than throughput, e.g. X-masking analysis and
//     critical path tracing.
//
// Both simulators share the gate semantics defined by the logic package, so
// the property "packed ≡ scalar" is testable and tested.
package sim

import (
	"fmt"

	"multidiag/internal/logic"
	"multidiag/internal/netlist"
)

// Pattern is one input assignment: one logic.Value per primary input, in the
// circuit's PI declaration order.
type Pattern []logic.Value

// ParsePattern parses a string like "01X10" into a Pattern.
func ParsePattern(s string) (Pattern, error) {
	p := make(Pattern, len(s))
	for i := 0; i < len(s); i++ {
		v, err := logic.ParseValue(s[i : i+1])
		if err != nil {
			return nil, fmt.Errorf("sim: pattern %q position %d: %v", s, i, err)
		}
		p[i] = v
	}
	return p, nil
}

// String renders the pattern as a 0/1/X string.
func (p Pattern) String() string {
	b := make([]byte, len(p))
	for i, v := range p {
		b[i] = v.String()[0]
	}
	return string(b)
}

// Clone returns a copy of the pattern.
func (p Pattern) Clone() Pattern {
	return append(Pattern(nil), p...)
}

// Simulator is a levelized packed-parallel simulator bound to one finalized
// circuit. It is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	c    *netlist.Circuit
	vals []logic.PV64 // per-net packed values of the most recent Run
}

// New creates a simulator for the finalized circuit c.
func New(c *netlist.Circuit) *Simulator {
	if !c.Finalized() {
		panic("sim: circuit not finalized")
	}
	return &Simulator{c: c, vals: make([]logic.PV64, c.NumGates())}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// PackPatterns packs up to logic.W patterns (all of the circuit's PI width)
// into per-PI packed vectors. Unused slots are padded with the last
// pattern's values so they never introduce spurious X's. It returns the
// per-PI vectors and the number of valid slots.
func (s *Simulator) PackPatterns(pats []Pattern) ([]logic.PV64, int, error) {
	if len(pats) == 0 || len(pats) > logic.W {
		return nil, 0, fmt.Errorf("sim: need 1..%d patterns, got %d", logic.W, len(pats))
	}
	npi := len(s.c.PIs)
	piv := make([]logic.PV64, npi)
	for pi := 0; pi < npi; pi++ {
		var v logic.PV64
		for slot := 0; slot < logic.W; slot++ {
			idx := slot
			if idx >= len(pats) {
				idx = len(pats) - 1
			}
			if len(pats[idx]) != npi {
				return nil, 0, fmt.Errorf("sim: pattern %d has width %d, want %d", idx, len(pats[idx]), npi)
			}
			v = v.Set(uint(slot), pats[idx][pi])
		}
		piv[pi] = v
	}
	return piv, len(pats), nil
}

// Run simulates the packed PI assignment (one PV64 per PI, in PI order) and
// leaves per-net values retrievable via Value/Values.
func (s *Simulator) Run(piVals []logic.PV64) error {
	if len(piVals) != len(s.c.PIs) {
		return fmt.Errorf("sim: got %d PI vectors, want %d", len(piVals), len(s.c.PIs))
	}
	for i, pi := range s.c.PIs {
		s.vals[pi] = piVals[i]
	}
	for _, id := range s.c.LevelOrder() {
		g := &s.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		s.vals[id] = EvalPacked(g.Type, g.Fanin, s.vals)
	}
	return nil
}

// RunWithOverrides simulates like Run but forces the listed nets to fixed
// packed values after their natural evaluation; downstream gates observe the
// forced value. This is the primitive under stuck-at fault simulation and
// X-injection: forcing net n to PVX models "value unknown at n".
//
// Overrides on primary inputs replace the applied value.
func (s *Simulator) RunWithOverrides(piVals []logic.PV64, force map[netlist.NetID]logic.PV64) error {
	if len(piVals) != len(s.c.PIs) {
		return fmt.Errorf("sim: got %d PI vectors, want %d", len(piVals), len(s.c.PIs))
	}
	for i, pi := range s.c.PIs {
		s.vals[pi] = piVals[i]
		if fv, ok := force[pi]; ok {
			s.vals[pi] = fv
		}
	}
	for _, id := range s.c.LevelOrder() {
		g := &s.c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		v := EvalPacked(g.Type, g.Fanin, s.vals)
		if fv, ok := force[id]; ok {
			v = fv
		}
		s.vals[id] = v
	}
	return nil
}

// Value returns the packed value of net id from the most recent Run.
func (s *Simulator) Value(id netlist.NetID) logic.PV64 { return s.vals[id] }

// Values returns the full per-net value slice of the most recent Run. The
// slice is owned by the simulator; callers must copy before the next Run if
// they need persistence.
func (s *Simulator) Values() []logic.PV64 { return s.vals }

// POValues returns the packed values at the primary outputs, in PO order.
func (s *Simulator) POValues() []logic.PV64 {
	out := make([]logic.PV64, len(s.c.POs))
	for i, po := range s.c.POs {
		out[i] = s.vals[po]
	}
	return out
}

// EvalPacked evaluates one gate over packed inputs, reading each fan-in
// net's value from vals (indexed by NetID).
func EvalPacked(t netlist.GateType, fanin []netlist.NetID, vals []logic.PV64) logic.PV64 {
	switch t {
	case netlist.Buf:
		return vals[fanin[0]]
	case netlist.Not:
		return vals[fanin[0]].Not()
	case netlist.And, netlist.Nand:
		acc := vals[fanin[0]]
		for _, f := range fanin[1:] {
			acc = acc.And(vals[f])
		}
		if t == netlist.Nand {
			acc = acc.Not()
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := vals[fanin[0]]
		for _, f := range fanin[1:] {
			acc = acc.Or(vals[f])
		}
		if t == netlist.Nor {
			acc = acc.Not()
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := vals[fanin[0]]
		for _, f := range fanin[1:] {
			acc = acc.Xor(vals[f])
		}
		if t == netlist.Xnor {
			acc = acc.Not()
		}
		return acc
	}
	// Input handled by caller; unreachable for valid circuits.
	return logic.PVX
}

// EvalScalarGate evaluates one gate over scalar three-valued inputs given as
// a lookup function.
func EvalScalarGate(t netlist.GateType, fanin []netlist.NetID, val func(netlist.NetID) logic.Value) logic.Value {
	switch t {
	case netlist.Buf:
		return val(fanin[0])
	case netlist.Not:
		return val(fanin[0]).Not()
	case netlist.And, netlist.Nand:
		acc := val(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.And(val(f))
		}
		if t == netlist.Nand {
			acc = acc.Not()
		}
		return acc
	case netlist.Or, netlist.Nor:
		acc := val(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.Or(val(f))
		}
		if t == netlist.Nor {
			acc = acc.Not()
		}
		return acc
	case netlist.Xor, netlist.Xnor:
		acc := val(fanin[0])
		for _, f := range fanin[1:] {
			acc = acc.Xor(val(f))
		}
		if t == netlist.Xnor {
			acc = acc.Not()
		}
		return acc
	}
	return logic.X
}

// EvalScalar simulates one pattern through the whole circuit and returns the
// per-net scalar values. force, if non-nil, pins nets to fixed values (the
// scalar analogue of RunWithOverrides).
func EvalScalar(c *netlist.Circuit, p Pattern, force map[netlist.NetID]logic.Value) ([]logic.Value, error) {
	if len(p) != len(c.PIs) {
		return nil, fmt.Errorf("sim: pattern width %d, want %d", len(p), len(c.PIs))
	}
	vals := make([]logic.Value, c.NumGates())
	for i := range vals {
		vals[i] = logic.X
	}
	for i, pi := range c.PIs {
		vals[pi] = p[i]
		if fv, ok := force[pi]; ok {
			vals[pi] = fv
		}
	}
	get := func(id netlist.NetID) logic.Value { return vals[id] }
	for _, id := range c.LevelOrder() {
		g := &c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		v := EvalScalarGate(g.Type, g.Fanin, get)
		if fv, ok := force[id]; ok {
			v = fv
		}
		vals[id] = v
	}
	return vals, nil
}
