package tester

import (
	"strings"
	"testing"

	"multidiag/internal/bitset"
	"multidiag/internal/circuits"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
)

func exhaustivePatterns(npi int) []sim.Pattern {
	n := 1 << npi
	pats := make([]sim.Pattern, n)
	for m := 0; m < n; m++ {
		p := make(sim.Pattern, npi)
		for i := 0; i < npi; i++ {
			p[i] = logic.FromBool(m>>i&1 == 1)
		}
		pats[m] = p
	}
	return pats
}

func TestFromSyndromeRoundTrip(t *testing.T) {
	s := fsim.NewSyndrome(10, 4)
	s.AddFail(2, 0)
	s.AddFail(2, 3)
	s.AddFail(7, 1)
	d := FromSyndrome("x", s)
	if len(d.Fails) != 2 || d.NumFailBits() != 3 {
		t.Fatalf("datalog: %+v", d)
	}
	fp := d.FailingPatterns()
	if len(fp) != 2 || fp[0] != 2 || fp[1] != 7 {
		t.Fatalf("failing patterns %v", fp)
	}
	back := d.Syndrome()
	if !back.Equal(s) {
		t.Fatal("syndrome round trip failed")
	}
	// Mutating the datalog must not affect the source syndrome.
	d.Fails[2].Add(1)
	if s.Fails[2].Has(1) {
		t.Fatal("FromSyndrome shares bitset storage")
	}
}

func TestApplyTestCleanDevice(t *testing.T) {
	c := circuits.C17()
	dev := c.Clone()
	if err := dev.Finalize(); err != nil {
		t.Fatal(err)
	}
	d, err := ApplyTest(c, dev, exhaustivePatterns(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fails) != 0 {
		t.Fatalf("clean device fails %d patterns", len(d.Fails))
	}
}

func TestApplyTestMatchesFaultSim(t *testing.T) {
	// A device with G16 hard-wired to 0 must produce exactly the stuck-at
	// syndrome predicted by the fault simulator.
	c := circuits.C17()
	pats := exhaustivePatterns(5)

	dev := netlist.NewCircuit("c17sa")
	for _, name := range []string{"G1", "G2", "G3", "G6", "G7"} {
		dev.MustAddGate(netlist.Input, name)
	}
	g1, g3, g6 := dev.NetByName("G1"), dev.NetByName("G3"), dev.NetByName("G6")
	g2, g7 := dev.NetByName("G2"), dev.NetByName("G7")
	g10 := dev.MustAddGate(netlist.Nand, "G10", g1, g3)
	g11 := dev.MustAddGate(netlist.Nand, "G11", g3, g6)
	// G16 stuck at 0: replace with constant 0 = AND(G2, NOT(G2)).
	n := dev.MustAddGate(netlist.Not, "nG2", g2)
	g16 := dev.MustAddGate(netlist.And, "G16", g2, n)
	g19 := dev.MustAddGate(netlist.Nand, "G19", g11, g7)
	g22 := dev.MustAddGate(netlist.Nand, "G22", g10, g16)
	g23 := dev.MustAddGate(netlist.Nand, "G23", g16, g19)
	_ = dev.MarkPO(g22)
	_ = dev.MarkPO(g23)
	if err := dev.Finalize(); err != nil {
		t.Fatal(err)
	}

	d, err := ApplyTest(c, dev, pats)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	want := fs.SimulateStuckAt(fault.StuckAt{Net: c.NetByName("G16"), Value1: false})
	if !d.Syndrome().Equal(want) {
		t.Fatal("ApplyTest syndrome differs from fault-sim prediction")
	}
}

func TestApplyTestInterfaceMismatch(t *testing.T) {
	c := circuits.C17()
	add, _ := circuits.RippleAdder(2)
	if _, err := ApplyTest(c, add, exhaustivePatterns(5)); err == nil {
		t.Fatal("interface mismatch accepted")
	}
}

func TestTruncate(t *testing.T) {
	d := &Datalog{CircuitName: "x", NumPatterns: 10, NumPOs: 8, Fails: map[int]bitset.Set{}}
	for _, p := range []int{1, 3, 5} {
		s := bitset.New(8)
		s.Add(0)
		s.Add(4)
		d.Fails[p] = s
	}
	// Budget 6 holds all.
	full := d.Truncate(6)
	if full.Truncated || full.NumFailBits() != 6 {
		t.Fatalf("truncate(6): %+v", full)
	}
	// Budget 3: patterns 1 fully, pattern 3 partially, stop.
	part := d.Truncate(3)
	if !part.Truncated || part.TruncatedAfter != 3 {
		t.Fatalf("truncate(3): %+v", part)
	}
	if part.NumFailBits() != 3 {
		t.Fatalf("truncate(3) bits = %d", part.NumFailBits())
	}
	if _, ok := part.Fails[5]; ok {
		t.Fatal("pattern after truncation retained")
	}
	// Budget 2: pattern 1 fully (2 bits) then pattern 3 hits 0 budget.
	p2 := d.Truncate(2)
	if !p2.Truncated || p2.NumFailBits() != 2 {
		t.Fatalf("truncate(2): %d bits", p2.NumFailBits())
	}
}

func TestDatalogSerialization(t *testing.T) {
	d := &Datalog{CircuitName: "c17", NumPatterns: 32, NumPOs: 2, Fails: map[int]bitset.Set{}}
	s1 := bitset.New(2)
	s1.Add(0)
	s12 := bitset.New(2)
	s12.Add(0)
	s12.Add(1)
	d.Fails[3] = s1
	d.Fails[17] = s12
	d.Truncated = true
	d.TruncatedAfter = 20

	var sb strings.Builder
	if err := WriteDatalog(&sb, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDatalog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.CircuitName != "c17" || back.NumPatterns != 32 || back.NumPOs != 2 {
		t.Fatalf("header lost: %+v", back)
	}
	if !back.Truncated || back.TruncatedAfter != 20 {
		t.Fatal("truncation marker lost")
	}
	if len(back.Fails) != 2 || !back.Fails[3].Has(0) || !back.Fails[17].Has(1) {
		t.Fatalf("fails lost: %+v", back.Fails)
	}
}

func TestReadDatalogErrors(t *testing.T) {
	cases := map[string]string{
		"no patterns":     "pos 2\nfail 0 1\n",
		"bad fail pat":    "patterns 4\npos 2\nfail 9 0\n",
		"bad fail po":     "patterns 4\npos 2\nfail 0 5\n",
		"fail before pos": "patterns 4\nfail 0 1\n",
		"unknown":         "patterns 4\npos 2\nfrobnicate 1\n",
		"short fail":      "patterns 4\npos 2\nfail 0\n",
		"non-numeric":     "patterns x\n",
		"empty":           "",
		// A width past the bound used to panic in make on the fail line.
		"oversized pos":     "patterns 4\npos 9223372036854775807\nfail 0 0\n",
		"negative patterns": "patterns -1\npos 2\n",
		"zero pos":          "patterns 4\npos 0\n",
		"missing pos":       "patterns 4\n",
		// A second declaration would strand the fails parsed under the first.
		"patterns twice": "patterns 4\npos 2\nfail 3 0\npatterns 2\n",
		// The cut must name a pattern, and only one.
		"negative truncated": "patterns 4\npos 2\ntruncated -7\n",
		"truncated past end": "truncated 1000000000\npatterns 4\npos 2\n",
		"truncated twice":    "patterns 4\npos 2\ntruncated 1\ntruncated 2\n",
	}
	for name, src := range cases {
		if _, err := ReadDatalog(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadDatalogTruncatedRange: the cut may be any pattern, first or
// last, and may precede the declarations it is checked against.
func TestReadDatalogTruncatedRange(t *testing.T) {
	for src, want := range map[string]int{
		"truncated 3\npatterns 4\npos 2\n":           3,
		"patterns 4\npos 2\nfail 0 1\ntruncated 0\n": 0,
	} {
		d, err := ReadDatalog(strings.NewReader(src))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !d.Truncated || d.TruncatedAfter != want {
			t.Errorf("%q: truncated=%v after %d, want after %d", src, d.Truncated, d.TruncatedAfter, want)
		}
	}
}

func TestPatternSerialization(t *testing.T) {
	pats := []sim.Pattern{
		mustPattern(t, "01X10"),
		mustPattern(t, "11111"),
	}
	var sb strings.Builder
	if err := WritePatterns(&sb, pats); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPatterns(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].String() != "01X10" || back[1].String() != "11111" {
		t.Fatalf("round trip: %v", back)
	}
	// Comments and blanks tolerated.
	back2, err := ReadPatterns(strings.NewReader("# hi\n\n01X10\n"))
	if err != nil || len(back2) != 1 {
		t.Fatal(err)
	}
	// Width mismatch rejected.
	if _, err := ReadPatterns(strings.NewReader("01\n011\n")); err == nil {
		t.Error("width mismatch accepted")
	}
	// Bad character rejected.
	if _, err := ReadPatterns(strings.NewReader("012\n")); err == nil {
		t.Error("bad char accepted")
	}
}

func mustPattern(t *testing.T, s string) sim.Pattern {
	t.Helper()
	p, err := sim.ParsePattern(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReadDatalogUnionsRepeatedFails: a repeated fail line adds to the
// pattern's failing POs, as repeated structured fails do, instead of
// replacing the earlier line's.
func TestReadDatalogUnionsRepeatedFails(t *testing.T) {
	d, err := ReadDatalog(strings.NewReader("patterns 4\npos 2\nfail 0 0\nfail 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Fails[0].Members(); len(got) != 2 || d.NumFailBits() != 2 {
		t.Fatalf("pattern 0 fails %v (%d bits), want [0 1]", got, d.NumFailBits())
	}
}

// TestReadDatalogForRejectsShape: with the workload known, a disagreeing
// declaration fails at its own line, before the fail lines after it are
// read, so a wide declaration allocates nothing.
func TestReadDatalogForRejectsShape(t *testing.T) {
	for name, tc := range map[string]struct {
		src  string
		line string
	}{
		"patterns": {"patterns 5\npos 2\nfail 0 0\n", "line 1"},
		"pos":      {"patterns 4\npos 1000000\nfail 0 0\nfail 1 0\n", "line 2"},
	} {
		_, err := ReadDatalogFor(strings.NewReader(tc.src), 4, 2)
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("%s: err = %v, want an error at %s", name, err, tc.line)
		}
	}
	if _, err := ReadDatalogFor(strings.NewReader("patterns 4\npos 2\nfail 3 1\n"), 4, 2); err != nil {
		t.Errorf("matching shape rejected: %v", err)
	}
}
