package sim

import (
	"math/rand"
	"strings"
	"testing"

	"multidiag/internal/logic"
	"multidiag/internal/netlist"
)

const c17Bench = `
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

func c17(t testing.TB) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBench("c17", strings.NewReader(c17Bench))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refC17 computes c17's outputs directly from the Boolean equations.
func refC17(in [5]bool) (g22, g23 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	g10 := nand(in[0], in[2])
	g11 := nand(in[2], in[3])
	g16 := nand(in[1], g11)
	g19 := nand(g11, in[4])
	return nand(g10, g16), nand(g16, g19)
}

func TestParsePattern(t *testing.T) {
	p, err := ParsePattern("01X10")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "01X10" {
		t.Fatalf("round trip: %q", p.String())
	}
	if _, err := ParsePattern("012"); err == nil {
		t.Error("invalid pattern accepted")
	}
	q := p.Clone()
	q[0] = logic.One
	if p[0] != logic.Zero {
		t.Error("Clone shares storage")
	}
}

func TestScalarExhaustiveC17(t *testing.T) {
	c := c17(t)
	for m := 0; m < 32; m++ {
		var in [5]bool
		p := make(Pattern, 5)
		for i := 0; i < 5; i++ {
			in[i] = m>>i&1 == 1
			p[i] = logic.FromBool(in[i])
		}
		vals, err := EvalScalar(c, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		w22, w23 := refC17(in)
		if vals[c.NetByName("G22")] != logic.FromBool(w22) {
			t.Fatalf("m=%d G22 wrong", m)
		}
		if vals[c.NetByName("G23")] != logic.FromBool(w23) {
			t.Fatalf("m=%d G23 wrong", m)
		}
	}
}

func TestPackedExhaustiveC17(t *testing.T) {
	c := c17(t)
	s := New(c)
	pats := make([]Pattern, 32)
	for m := 0; m < 32; m++ {
		p := make(Pattern, 5)
		for i := 0; i < 5; i++ {
			p[i] = logic.FromBool(m>>i&1 == 1)
		}
		pats[m] = p
	}
	piv, n, err := s.PackPatterns(pats)
	if err != nil || n != 32 {
		t.Fatal(err, n)
	}
	if err := s.Run(piv); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 32; m++ {
		var in [5]bool
		for i := 0; i < 5; i++ {
			in[i] = m>>i&1 == 1
		}
		w22, w23 := refC17(in)
		if s.Value(c.NetByName("G22")).Get(uint(m)) != logic.FromBool(w22) {
			t.Fatalf("slot %d G22 wrong", m)
		}
		if s.Value(c.NetByName("G23")).Get(uint(m)) != logic.FromBool(w23) {
			t.Fatalf("slot %d G23 wrong", m)
		}
	}
}

// randomCircuit builds a seeded random DAG directly (the circuits package
// has a fuller generator; this local one keeps sim tests self-contained).
func randomCircuit(t testing.TB, seed int64, npi, ngate int) *netlist.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	c := netlist.NewCircuit("rand")
	ids := make([]netlist.NetID, 0, npi+ngate)
	for i := 0; i < npi; i++ {
		ids = append(ids, c.MustAddGate(netlist.Input, "pi"+itoa(i)))
	}
	types := []netlist.GateType{
		netlist.And, netlist.Or, netlist.Nand, netlist.Nor,
		netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf,
	}
	for i := 0; i < ngate; i++ {
		typ := types[r.Intn(len(types))]
		var fanin []netlist.NetID
		nin := 1
		if typ != netlist.Not && typ != netlist.Buf {
			nin = 2 + r.Intn(2)
		}
		for j := 0; j < nin; j++ {
			fanin = append(fanin, ids[r.Intn(len(ids))])
		}
		ids = append(ids, c.MustAddGate(typ, "g"+itoa(i), fanin...))
	}
	// Last few nets become POs, plus any dangling net.
	for i := len(ids) - 3; i < len(ids); i++ {
		if err := c.MarkPO(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestPackedMatchesScalar verifies the two simulators agree on random
// circuits and random (possibly X-bearing) patterns.
func TestPackedMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := randomCircuit(t, seed, 8, 60)
		s := New(c)
		r := rand.New(rand.NewSource(seed + 100))
		pats := make([]Pattern, logic.W)
		for i := range pats {
			p := make(Pattern, len(c.PIs))
			for j := range p {
				p[j] = logic.Value(r.Intn(3)) // includes X
			}
			pats[i] = p
		}
		piv, _, err := s.PackPatterns(pats)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(piv); err != nil {
			t.Fatal(err)
		}
		for slot, p := range pats {
			vals, err := EvalScalar(c, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for id := range vals {
				got := s.Value(netlist.NetID(id)).Get(uint(slot))
				if got != vals[id] {
					t.Fatalf("seed %d slot %d net %s: packed %v scalar %v",
						seed, slot, c.NameOf(netlist.NetID(id)), got, vals[id])
				}
			}
		}
	}
}

func TestPackPatternPadding(t *testing.T) {
	c := c17(t)
	s := New(c)
	p, _ := ParsePattern("10101")
	piv, n, err := s.PackPatterns([]Pattern{p})
	if err != nil || n != 1 {
		t.Fatal(err, n)
	}
	// All 64 slots should replicate the single pattern (no X padding).
	for i, pi := range piv {
		for slot := uint(0); slot < logic.W; slot++ {
			if pi.Get(slot) != p[i] {
				t.Fatalf("padding introduced wrong value at PI %d slot %d", i, slot)
			}
		}
	}
}

func TestPackErrors(t *testing.T) {
	c := c17(t)
	s := New(c)
	if _, _, err := s.PackPatterns(nil); err == nil {
		t.Error("empty pack accepted")
	}
	short, _ := ParsePattern("101")
	if _, _, err := s.PackPatterns([]Pattern{short}); err == nil {
		t.Error("width mismatch accepted")
	}
	if err := s.Run(make([]logic.PV64, 3)); err == nil {
		t.Error("Run with wrong PI count accepted")
	}
	if _, err := EvalScalar(c, short, nil); err == nil {
		t.Error("EvalScalar with wrong width accepted")
	}
}

func TestScalarForce(t *testing.T) {
	c := c17(t)
	p, _ := ParsePattern("00000")
	base, _ := EvalScalar(c, p, nil)
	forced, _ := EvalScalar(c, p, map[netlist.NetID]logic.Value{
		c.NetByName("G16"): logic.Zero,
	})
	g22 := c.NetByName("G22")
	if base[g22] == forced[g22] {
		t.Error("scalar force had no effect")
	}
}

func TestXPropagation(t *testing.T) {
	c := c17(t)
	// With G3=X and the rest 0: G10 = NAND(0,X) = 1 (controlling 0),
	// G11 = NAND(X,0) = 1, G16 = NAND(0,1) = 1, G22 = NAND(1,1) = 0: X killed.
	p, _ := ParsePattern("00X00")
	vals, err := EvalScalar(c, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vals[c.NetByName("G22")] != logic.Zero {
		t.Fatalf("G22 = %v, want 0 (X must be masked)", vals[c.NetByName("G22")])
	}
	// With G3=X, G1=1: G10 = NAND(1,X) = X — X propagates.
	p2, _ := ParsePattern("10X00")
	vals2, _ := EvalScalar(c, p2, nil)
	if vals2[c.NetByName("G10")] != logic.X {
		t.Fatalf("G10 = %v, want X", vals2[c.NetByName("G10")])
	}
}
