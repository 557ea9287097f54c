package netlist

// FaninCone returns the set of nets in the transitive fan-in of root
// (including root itself), as a boolean slice indexed by NetID.
func (c *Circuit) FaninCone(root NetID) []bool {
	in := make([]bool, len(c.Gates))
	stack := []NetID{root}
	in[root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[n].Fanin {
			if !in[f] {
				in[f] = true
				stack = append(stack, f)
			}
		}
	}
	return in
}

// FanoutCone returns the set of nets in the transitive fan-out of root
// (including root itself), as a boolean slice indexed by NetID. Requires a
// finalized circuit.
func (c *Circuit) FanoutCone(root NetID) []bool {
	out := make([]bool, len(c.Gates))
	stack := []NetID{root}
	out[root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range c.Gates[n].Fanout {
			if !out[g] {
				out[g] = true
				stack = append(stack, g)
			}
		}
	}
	return out
}

// IsFanoutStem reports whether net id drives more than one gate input (its
// value reconverges), which matters to critical path tracing: criticality of
// a stem cannot be inferred from branch criticality alone.
func (c *Circuit) IsFanoutStem(id NetID) bool {
	// Count fan-in references, not reader gates: a net feeding two inputs of
	// the same gate is also a stem.
	refs := 0
	for _, rd := range c.Gates[id].Fanout {
		for _, f := range c.Gates[rd].Fanin {
			if f == id {
				refs++
			}
		}
	}
	return refs > 1
}
