package netlist

import (
	"strings"
	"testing"
)

// buildC17 constructs the classic c17 benchmark programmatically.
func buildC17(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit("c17")
	g1 := c.MustAddGate(Input, "G1")
	g2 := c.MustAddGate(Input, "G2")
	g3 := c.MustAddGate(Input, "G3")
	g6 := c.MustAddGate(Input, "G6")
	g7 := c.MustAddGate(Input, "G7")
	g10 := c.MustAddGate(Nand, "G10", g1, g3)
	g11 := c.MustAddGate(Nand, "G11", g3, g6)
	g16 := c.MustAddGate(Nand, "G16", g2, g11)
	g19 := c.MustAddGate(Nand, "G19", g11, g7)
	g22 := c.MustAddGate(Nand, "G22", g10, g16)
	g23 := c.MustAddGate(Nand, "G23", g16, g19)
	if err := c.MarkPO(g22); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkPO(g23); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildAndFinalize(t *testing.T) {
	c := buildC17(t)
	if c.NumGates() != 11 || c.NumLogicGates() != 6 {
		t.Fatalf("gate counts: %d/%d", c.NumGates(), c.NumLogicGates())
	}
	if len(c.PIs) != 5 || len(c.POs) != 2 {
		t.Fatalf("PI/PO counts: %d/%d", len(c.PIs), len(c.POs))
	}
	if c.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3", c.MaxLevel())
	}
	// Levels: inputs 0, G10/G11 1, G16/G19 2, G22/G23 3.
	for name, want := range map[string]int{"G1": 0, "G10": 1, "G16": 2, "G19": 2, "G22": 3, "G23": 3} {
		id := c.NetByName(name)
		if id == InvalidNet {
			t.Fatalf("net %s missing", name)
		}
		if got := c.Gates[id].Level; got != want {
			t.Errorf("level(%s) = %d, want %d", name, got, want)
		}
	}
	// Fanout of G11 is G16 and G19.
	g11 := c.NetByName("G11")
	if len(c.Gates[g11].Fanout) != 2 {
		t.Fatalf("fanout(G11) = %v", c.Gates[g11].Fanout)
	}
	if !c.IsFanoutStem(g11) {
		t.Error("G11 should be a fanout stem")
	}
	if c.IsFanoutStem(c.NetByName("G10")) {
		t.Error("G10 should not be a fanout stem")
	}
}

func TestAddGateErrors(t *testing.T) {
	c := NewCircuit("err")
	a := c.MustAddGate(Input, "a")
	if _, err := c.AddGate(Input, "a"); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddGate(Input, "b", a); err == nil {
		t.Error("input with fan-in accepted")
	}
	if _, err := c.AddGate(Not, "n", a, a); err == nil {
		t.Error("2-input NOT accepted")
	}
	if _, err := c.AddGate(And, "g", a); err == nil {
		t.Error("1-input AND accepted")
	}
	if _, err := c.AddGate(And, "h", a, NetID(99)); err == nil {
		t.Error("undefined fan-in accepted")
	}
	if err := c.MarkPO(NetID(99)); err == nil {
		t.Error("MarkPO of undefined net accepted")
	}
}

func TestFinalizeErrors(t *testing.T) {
	c := NewCircuit("nopi")
	if err := c.Finalize(); err == nil {
		t.Error("circuit without PIs finalized")
	}
	c2 := NewCircuit("nopo")
	c2.MustAddGate(Input, "a")
	if err := c2.Finalize(); err == nil {
		t.Error("circuit without POs finalized")
	}
	c3 := buildC17(t)
	if _, err := c3.AddGate(Input, "late"); err == nil {
		t.Error("AddGate after Finalize accepted")
	}
	if err := c3.Finalize(); err != nil {
		t.Error("re-Finalize should be a no-op")
	}
}

func TestGateTypeParsing(t *testing.T) {
	for s, want := range map[string]GateType{
		"and": And, "NAND": Nand, "Or": Or, "NOR": Nor,
		"xor": Xor, "XNOR": Xnor, "not": Not, "INV": Not,
		"buf": Buf, "BUFF": Buf, "INPUT": Input,
	} {
		got, err := ParseGateType(s)
		if err != nil || got != want {
			t.Errorf("ParseGateType(%q) = %v,%v", s, got, err)
		}
	}
	if _, err := ParseGateType("DFF"); err == nil {
		t.Error("DFF must not parse as a combinational gate type")
	}
}

func TestControllingValue(t *testing.T) {
	for typ, want := range map[GateType]struct {
		v  bool
		ok bool
	}{
		And: {false, true}, Nand: {false, true},
		Or: {true, true}, Nor: {true, true},
		Xor: {false, false}, Not: {false, false}, Buf: {false, false},
	} {
		v, ok := typ.ControllingValue()
		if ok != want.ok || (ok && v != want.v) {
			t.Errorf("ControllingValue(%v) = %v,%v", typ, v, ok)
		}
	}
}

func TestCones(t *testing.T) {
	c := buildC17(t)
	g22 := c.NetByName("G22")
	cone := c.FaninCone(g22)
	wantIn := []string{"G22", "G10", "G16", "G1", "G2", "G3", "G6", "G11"}
	for _, n := range wantIn {
		if !cone[c.NetByName(n)] {
			t.Errorf("%s missing from fanin cone of G22", n)
		}
	}
	if cone[c.NetByName("G7")] || cone[c.NetByName("G19")] || cone[c.NetByName("G23")] {
		t.Error("fanin cone of G22 too large")
	}

	g11 := c.NetByName("G11")
	out := c.FanoutCone(g11)
	for _, n := range []string{"G11", "G16", "G19", "G22", "G23"} {
		if !out[c.NetByName(n)] {
			t.Errorf("%s missing from fanout cone of G11", n)
		}
	}
	if out[c.NetByName("G10")] {
		t.Error("fanout cone of G11 too large")
	}
}

const c17Bench = `
# c17 benchmark
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func TestParseBench(t *testing.T) {
	c, err := ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	ref := buildC17(t)
	if c.NumGates() != ref.NumGates() || len(c.PIs) != len(ref.PIs) || len(c.POs) != len(ref.POs) {
		t.Fatalf("parsed structure differs: %+v", c.ComputeStats())
	}
	if c.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d", c.MaxLevel())
	}
}

func TestParseBenchForwardRefs(t *testing.T) {
	// Definitions out of topological order must still parse.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(m, b)
m = NOT(a)
`
	c, err := ParseBench("fwd", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 2 {
		t.Fatalf("gates = %d", c.NumLogicGates())
	}
}

func TestParseBenchSingleInputAndOr(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
OUTPUT(y)
z = AND(a)
y = NOR(a)
`
	c, err := ParseBench("dialect", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[c.NetByName("z")].Type != Buf {
		t.Error("1-input AND should map to BUF")
	}
	if c.Gates[c.NetByName("y")].Type != Not {
		t.Error("1-input NOR should map to NOT")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"undefined net":   "INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n",
		"cycle":           "INPUT(a)\nOUTPUT(z)\nz = AND(a, y)\ny = AND(a, z)\n",
		"duplicate def":   "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n",
		"malformed gate":  "INPUT(a)\nOUTPUT(z)\nz = NOT a\n",
		"bad type":        "INPUT(a)\nOUTPUT(z)\nz = FROB(a, a)\n",
		"empty fanin":     "INPUT(a)\nOUTPUT(z)\nz = AND(a, )\n",
		"missing output":  "INPUT(a)\nOUTPUT(nothere)\nz = NOT(a)\n",
		"input as gate":   "INPUT(a)\nOUTPUT(z)\nz = INPUT(a)\n",
		"malformed input": "INPUT a\nOUTPUT(z)\nz = NOT(a)\n",
	}
	for name, src := range cases {
		if _, err := ParseBench(name, strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c, err := ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("c17rt", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, sb.String())
	}
	if c2.NumGates() != c.NumGates() || c2.MaxLevel() != c.MaxLevel() {
		t.Fatal("round trip changed structure")
	}
	for i := range c.Gates {
		id := c2.NetByName(c.Gates[i].Name)
		if id == InvalidNet {
			t.Fatalf("net %s lost in round trip", c.Gates[i].Name)
		}
		if c2.Gates[id].Type != c.Gates[i].Type {
			t.Fatalf("net %s changed type", c.Gates[i].Name)
		}
	}
}

func TestParseBenchScan(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
q = DFF(d)
d = AND(a, q)
z = NOT(q)
`
	c, ffs, err := ParseBenchScan("seq", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if ffs != 1 {
		t.Fatalf("ffs = %d", ffs)
	}
	// q becomes a PI; q_si becomes a PO.
	if c.Gates[c.NetByName("q")].Type != Input {
		t.Error("DFF output should be a pseudo-PI")
	}
	si := c.NetByName("q_si")
	if si == InvalidNet || !c.IsPO(si) {
		t.Error("DFF input alias should be a pseudo-PO")
	}
	if len(c.PIs) != 2 || len(c.POs) != 2 {
		t.Fatalf("PI/PO = %d/%d", len(c.PIs), len(c.POs))
	}
}

func TestClone(t *testing.T) {
	c := buildC17(t)
	cl := c.Clone()
	if cl.Finalized() {
		t.Fatal("clone must be un-finalized")
	}
	if err := cl.Finalize(); err != nil {
		t.Fatal(err)
	}
	if cl.NumGates() != c.NumGates() || cl.MaxLevel() != c.MaxLevel() {
		t.Fatal("clone structure differs")
	}
	// Mutating the clone's fanin must not touch the original.
	g22 := cl.NetByName("G22")
	cl.Gates[g22].Fanin[0] = cl.NetByName("G11")
	if c.Gates[c.NetByName("G22")].Fanin[0] == c.NetByName("G11") {
		t.Fatal("clone shares fanin storage with original")
	}
}

func TestComputeStats(t *testing.T) {
	c := buildC17(t)
	s := c.ComputeStats()
	if s.Gates != 6 || s.PIs != 5 || s.POs != 2 || s.TypeCount[Nand] != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLevelOrder(t *testing.T) {
	c := buildC17(t)
	ord := c.LevelOrder()
	if len(ord) != c.NumGates() {
		t.Fatal("LevelOrder wrong length")
	}
	last := -1
	for _, id := range ord {
		if c.Gates[id].Level < last {
			t.Fatal("LevelOrder not monotone")
		}
		last = c.Gates[id].Level
	}
}
