package transition

import (
	"math/rand"
	"strings"
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
)

func TestFaultBasics(t *testing.T) {
	c := circuits.C17()
	f := Fault{Net: c.NetByName("G11"), Rise: true}
	if f.Name(c) != "G11 STR" {
		t.Errorf("Name = %q", f.Name(c))
	}
	if f.launchValue() != logic.Zero {
		t.Error("STR launch value must be 0")
	}
	if st := f.asStuck(); st.Value1 {
		t.Error("STR capture-equivalent must be sa0")
	}
	g := Fault{Net: f.Net, Rise: false}
	if g.Name(c) != "G11 STF" || g.launchValue() != logic.One || !g.asStuck().Value1 {
		t.Error("STF mapping wrong")
	}
	if len(List(c)) != 2*c.NumGates() {
		t.Error("universe size")
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

// TestDetectsManual checks the three detection conditions on a hand-worked
// c17 case: G10 STR.
//
// G10 = NAND(G1, G3). Launch 11000 → G10 = NAND(1,1) = 0 (launch ok).
// Capture 01000: G10 = NAND(0,1) = 1 (transition requested). Late G10=0 →
// G22 = NAND(0, G16): G16 = NAND(1, G11), G11 = NAND(0,0)=1 → G16=0 →
// G22good = NAND(1,0)=1; G22bad = NAND(0,0)=1 — masked. Try capture 00100:
// G3=1: G10 = NAND(0,1)=1 ✓; G11=NAND(1,0)=1; G16=NAND(0,1)=1;
// G22good=NAND(1,1)=0; bad G10=0 → G22=NAND(0,1)=1 ✓ detected at PO0.
func TestDetectsManual(t *testing.T) {
	c := circuits.C17()
	f := Fault{Net: c.NetByName("G10"), Rise: true}
	pr := Pair{Launch: mustPattern(t, "10100"), Capture: mustPattern(t, "00100")}
	fails, err := Detects(c, pr, f)
	if err != nil {
		t.Fatal(err)
	}
	if fails == nil || !fails.Has(0) {
		t.Fatalf("expected detection at PO0, got %v", fails)
	}
	// Same pair, no launch (launch pattern leaves G10 at 1): not detected.
	pr2 := Pair{Launch: mustPattern(t, "00100"), Capture: mustPattern(t, "00100")}
	fails2, err := Detects(c, pr2, f)
	if err != nil {
		t.Fatal(err)
	}
	if fails2 != nil {
		t.Fatal("detection without launch")
	}
	// Capture that does not request a transition: not detected.
	pr3 := Pair{Launch: mustPattern(t, "10100"), Capture: mustPattern(t, "10100")}
	fails3, err := Detects(c, pr3, f)
	if err != nil {
		t.Fatal(err)
	}
	if fails3 != nil {
		t.Fatal("detection without transition request")
	}
}

func TestGenerateCoverage(t *testing.T) {
	for _, mk := range []func() (*netlist.Circuit, error){
		func() (*netlist.Circuit, error) { return circuits.C17(), nil },
		func() (*netlist.Circuit, error) { return circuits.RippleAdder(4) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Generate(c, GenerateConfig{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage() < 0.8 {
			t.Errorf("%s: transition coverage %.2f", c.Name, res.Coverage())
		}
		// Verify the bookkeeping: every claimed-detected fault must be
		// detected by some pair.
		for fi, det := range res.Detected {
			if !det {
				continue
			}
			found := false
			for _, pr := range res.Pairs {
				fails, err := Detects(c, pr, res.Universe[fi])
				if err != nil {
					t.Fatal(err)
				}
				if fails != nil && !fails.Empty() {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%s: %s claimed detected but no pair detects it",
					c.Name, res.Universe[fi].Name(c))
			}
		}
	}
}

// TestApplyTestMatchesModel: a single slow net device must fail exactly
// where the transition-fault model predicts.
func TestApplyTestMatchesModel(t *testing.T) {
	c := circuits.C17()
	res, err := Generate(c, GenerateConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	n := c.NetByName("G16")
	log, err := ApplyTest(c, []SlowNet{{Net: n}}, res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	for pi, pr := range res.Pairs {
		// Model prediction: union of STR and STF detection (the slow net is
		// slow in both directions; per pair only one direction can launch).
		want := map[int]bool{}
		for _, f := range []Fault{{Net: n, Rise: true}, {Net: n, Rise: false}} {
			fails, err := Detects(c, pr, f)
			if err != nil {
				t.Fatal(err)
			}
			if fails != nil {
				for _, po := range fails.Members() {
					want[po] = true
				}
			}
		}
		for po := 0; po < len(c.POs); po++ {
			got := log.Fails[pi] != nil && log.Fails[pi].Has(po)
			if got != want[po] {
				t.Fatalf("pair %d PO %d: device %v model %v", pi, po, got, want[po])
			}
		}
	}
}

// TestDiagnoseSingleSlowNet: every observable slow-net defect on c17 must
// be localized (site or equivalence class containing it).
func TestDiagnoseSingleSlowNet(t *testing.T) {
	c := circuits.C17()
	res, err := Generate(c, GenerateConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Gates {
		n := netlist.NetID(i)
		if c.Gates[i].Type == netlist.Input {
			continue
		}
		log, err := ApplyTest(c, []SlowNet{{Net: n}}, res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Fails) == 0 {
			continue
		}
		d, err := Diagnose(c, res.Pairs, log, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		hit := false
		for _, nets := range d.MultipletNets() {
			for _, cn := range nets {
				if cn == n {
					hit = true
				}
			}
		}
		if !hit {
			t.Errorf("slow net %s not localized (multiplet %v)", c.NameOf(n), d.MultipletNets())
		}
		if d.Unexplained != 0 {
			t.Errorf("slow net %s: %d bits unexplained", c.NameOf(n), d.Unexplained)
		}
	}
}

// TestDiagnoseDoubleSlowNet on the adder: region-style hit counting over
// the two injected slow nets.
func TestDiagnoseDoubleSlowNet(t *testing.T) {
	c, err := circuits.RippleAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(c, GenerateConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	var logicNets []netlist.NetID
	for i := range c.Gates {
		if c.Gates[i].Type != netlist.Input {
			logicNets = append(logicNets, netlist.NetID(i))
		}
	}
	hits, runs := 0, 0
	for trial := 0; trial < 10; trial++ {
		a := logicNets[r.Intn(len(logicNets))]
		b := logicNets[r.Intn(len(logicNets))]
		if a == b {
			continue
		}
		log, err := ApplyTest(c, []SlowNet{{Net: a}, {Net: b}}, res.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Fails) == 0 {
			continue
		}
		d, err := Diagnose(c, res.Pairs, log, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		runs++
		found := map[netlist.NetID]bool{}
		for _, nets := range d.MultipletNets() {
			for _, cn := range nets {
				found[cn] = true
			}
		}
		if found[a] || found[b] {
			hits++
		}
	}
	if runs == 0 {
		t.Skip("no activated trials")
	}
	if float64(hits)/float64(runs) < 0.8 {
		t.Errorf("double slow-net hit rate %d/%d", hits, runs)
	}
}

func TestDiagnoseValidation(t *testing.T) {
	c := circuits.C17()
	res, err := Generate(c, GenerateConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	log, err := ApplyTest(c, nil, res.Pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Fails) != 0 {
		t.Fatal("defect-free device failed")
	}
	d, err := Diagnose(c, res.Pairs, log, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Multiplet) != 0 {
		t.Fatal("candidates for passing device")
	}
	log.NumPatterns = 999
	if _, err := Diagnose(c, res.Pairs, log, 0, 0); err == nil {
		t.Fatal("pair-count mismatch accepted")
	}
}

func TestPairSerialization(t *testing.T) {
	pairs := []Pair{
		{Launch: mustPattern(t, "10100"), Capture: mustPattern(t, "00100")},
		{Launch: mustPattern(t, "1X111"), Capture: mustPattern(t, "01110")},
	}
	var sb strings.Builder
	if err := WritePairs(&sb, pairs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPairs(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("pairs = %d", len(back))
	}
	for i := range pairs {
		if back[i].Launch.String() != pairs[i].Launch.String() ||
			back[i].Capture.String() != pairs[i].Capture.String() {
			t.Fatalf("pair %d changed in round trip", i)
		}
	}
	// Errors.
	for name, src := range map[string]string{
		"no separator":   "10100 00100\n",
		"width mismatch": "101|00\n",
		"second width":   "10|01\n111|000\n",
		"bad char":       "10２|001\n",
	} {
		if _, err := ReadPairs(strings.NewReader(src)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Comments and blank lines tolerated.
	ok, err := ReadPairs(strings.NewReader("# c\n\n10|01\n"))
	if err != nil || len(ok) != 1 {
		t.Fatalf("comment handling: %v %d", err, len(ok))
	}
}

// TestExtractSeeds pins the delay front end against its definition on
// double slow-net devices of a 6-bit adder: the seeds are exactly the
// transitions, between launch and capture, of the nets that brute-force
// flipping finds critical for some failing output of some failing pair,
// sorted by (net, slow-to-rise first).
func TestExtractSeeds(t *testing.T) {
	c, err := circuits.RippleAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(c, GenerateConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	launch := make([][]logic.Value, len(gen.Pairs))
	capture := make([][]logic.Value, len(gen.Pairs))
	for p, pr := range gen.Pairs {
		if launch[p], err = sim.EvalScalar(c, pr.Launch, nil); err != nil {
			t.Fatal(err)
		}
		if capture[p], err = sim.EvalScalar(c, pr.Capture, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(4))
	runs, held := 0, 0 // held counts critical nets without a transition
	for trial := 0; trial < 10; trial++ {
		a := netlist.NetID(r.Intn(c.NumGates()))
		b := netlist.NetID(r.Intn(c.NumGates()))
		log, err := ApplyTest(c, []SlowNet{{Net: a}, {Net: b}}, gen.Pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Fails) == 0 {
			continue
		}
		runs++
		want := map[fault.StuckAt]bool{}
		for _, p := range log.FailingPatterns() {
			v1, v2 := launch[p], capture[p]
			for _, po := range log.Fails[p].Members() {
				crit, err := fsim.BruteForceCritical(c, gen.Pairs[p].Capture, c.POs[po])
				if err != nil {
					t.Fatal(err)
				}
				for n, cr := range crit {
					switch {
					case !cr:
					case v1[n] == v2[n]:
						held++
					default:
						want[Fault{Net: netlist.NetID(n), Rise: v2[n] == logic.One}.asStuck()] = true
					}
				}
			}
		}
		seeds, err := extractSeeds(c, gen.Pairs, log, launch)
		if err != nil {
			t.Fatal(err)
		}
		if len(seeds) != len(want) {
			t.Fatalf("trial %d: %d seeds, want %d", trial, len(seeds), len(want))
		}
		for i, s := range seeds {
			if !want[s] {
				t.Fatalf("trial %d: seed %s is not a transition of a critical net", trial, fromStuck(s).Name(c))
			}
			if i > 0 {
				prev := seeds[i-1]
				if prev.Net > s.Net || prev.Net == s.Net && (prev.Value1 || !s.Value1) {
					t.Fatalf("trial %d: seed %s before %s, want (net, slow-to-rise first) order",
						trial, fromStuck(prev).Name(c), fromStuck(s).Name(c))
				}
			}
		}
	}
	if runs == 0 || held == 0 {
		t.Fatalf("fixture too weak: %d activated trials, %d critical nets without a transition", runs, held)
	}
}
