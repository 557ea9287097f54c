package compact

import (
	"fmt"
	"strings"
	"testing"

	"multidiag/internal/atpg"
	"multidiag/internal/bitset"
	"multidiag/internal/circuits"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/metrics"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

func TestNewXCompactStructure(t *testing.T) {
	cp, err := NewXCompact(20, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumPOs != 20 || cp.NumOut != 5 {
		t.Fatalf("dims: %+v", cp)
	}
	if cp.Ratio() != 4.0 {
		t.Fatalf("ratio %f", cp.Ratio())
	}
	// Every PO observed by exactly `fanout` distinct outputs.
	for p, sig := range cp.poOuts {
		if len(sig) != 2 {
			t.Fatalf("PO %d signature %v", p, sig)
		}
		if sig[0] == sig[1] {
			t.Fatalf("PO %d duplicate outputs", p)
		}
	}
	// Assign is the inverse of poOuts.
	for j, pos := range cp.Assign {
		for _, p := range pos {
			found := false
			for _, o := range cp.poOuts[p] {
				if o == j {
					found = true
				}
			}
			if !found {
				t.Fatalf("assign/poOuts inconsistent at out %d PO %d", j, p)
			}
		}
	}
	if _, err := NewXCompact(0, 5, 2, 1); err == nil {
		t.Error("zero POs accepted")
	}
}

func TestCompressFailsParity(t *testing.T) {
	cp := &Compactor{
		NumPOs: 4, NumOut: 2,
		Assign: [][]int{{0, 1}, {2, 3}},
		poOuts: [][]int{{0}, {0}, {1}, {1}},
	}
	f := bitset.New(4)
	f.Add(0)
	out := cp.CompressFails(f)
	if !out.Has(0) || out.Has(1) {
		t.Fatalf("single fail: %v", out)
	}
	// Aliasing: both POs of output 0 fail → cancel.
	f.Add(1)
	out = cp.CompressFails(f)
	if out.Has(0) {
		t.Fatal("even parity must alias")
	}
	// Three of four.
	f.Add(2)
	out = cp.CompressFails(f)
	if out.Has(0) || !out.Has(1) {
		t.Fatalf("mixed: %v", out)
	}
}

func TestCompressDatalog(t *testing.T) {
	d := &tester.Datalog{NumPatterns: 3, NumPOs: 4, Fails: map[int]bitset.Set{}}
	s := bitset.New(4)
	s.Add(0)
	s.Add(1) // aliases on output 0
	d.Fails[1] = s
	cp := &Compactor{
		NumPOs: 4, NumOut: 2,
		Assign: [][]int{{0, 1}, {2, 3}},
		poOuts: [][]int{{0}, {0}, {1}, {1}},
	}
	out := cp.CompressDatalog(d)
	if len(out.Fails) != 0 {
		t.Fatal("fully aliased pattern must become passing")
	}
	if out.NumPOs != 2 {
		t.Fatal("output count wrong")
	}
}

// diagnoseCompressed is the end-to-end helper: inject, test, compress,
// diagnose in compressed space, score at radius 1.
func diagnoseCompressed(t *testing.T, c *netlist.Circuit, ratio int, ds []defect.Defect, seed int64) (metrics.Score, *core.Result, bool) {
	t.Helper()
	tests, err := atpg.Generate(c, atpg.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := defect.Inject(c, ds)
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(c, dev, tests.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	numOut := (len(c.POs) + ratio - 1) / ratio
	if numOut < 1 {
		numOut = 1
	}
	cp, err := NewXCompact(len(c.POs), numOut, 2, seed)
	if err != nil {
		t.Fatal(err)
	}
	clog := cp.CompressDatalog(log)
	if len(clog.Fails) == 0 {
		return metrics.Score{}, nil, false
	}
	res, err := Diagnose(c, tests.Patterns, clog, cp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cands []metrics.Candidate
	for _, nets := range res.MultipletNets() {
		cands = append(cands, metrics.Candidate{Nets: nets})
	}
	return metrics.EvaluateRegion(c, ds, cands, 1), res, true
}

func TestDiagnoseSingleStuckCompressed(t *testing.T) {
	c, err := circuits.RippleAdder(12) // 13 POs
	if err != nil {
		t.Fatal(err)
	}
	found, runs := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 1, MixStuck: 1})
		if err != nil {
			t.Fatal(err)
		}
		score, _, active := diagnoseCompressed(t, c, 3, ds, seed)
		if !active {
			continue
		}
		runs++
		if score.Hits > 0 {
			found++
		}
	}
	if runs == 0 {
		t.Skip("no activated runs")
	}
	if float64(found)/float64(runs) < 0.8 {
		t.Errorf("compressed single-defect hit rate %d/%d", found, runs)
	}
}

func TestDiagnoseValidation(t *testing.T) {
	c := circuits.C17()
	tests, err := atpg.Generate(c, atpg.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewXCompact(len(c.POs), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &tester.Datalog{NumPatterns: 1, NumPOs: 1}
	if _, err := Diagnose(c, tests.Patterns, bad, cp, 0, 0); err == nil {
		t.Error("pattern mismatch accepted")
	}
	bad2 := &tester.Datalog{NumPatterns: len(tests.Patterns), NumPOs: 7}
	if _, err := Diagnose(c, tests.Patterns, bad2, cp, 0, 0); err == nil {
		t.Error("output mismatch accepted")
	}
	cpWrong, _ := NewXCompact(9, 3, 2, 1)
	good := &tester.Datalog{NumPatterns: len(tests.Patterns), NumPOs: 3, Fails: map[int]bitset.Set{}}
	if _, err := Diagnose(c, tests.Patterns, good, cpWrong, 0, 0); err == nil {
		t.Error("PO-count mismatch accepted")
	}
	// Passing compressed datalog.
	cpOK, _ := NewXCompact(len(c.POs), 1, 1, 1)
	pass := &tester.Datalog{NumPatterns: len(tests.Patterns), NumPOs: 1, Fails: map[int]bitset.Set{}}
	res, err := Diagnose(c, tests.Patterns, pass, cpOK, 0, 0)
	if err != nil || len(res.Multiplet) != 0 {
		t.Error("passing device mishandled")
	}
}

// TestAliasingLosesButDoesNotLie: with aggressive 8:1 compression the
// engine may fail to localize (information destroyed) but the multiplet it
// reports must still cover all compressed evidence.
func TestAliasingLosesButDoesNotLie(t *testing.T) {
	c, err := circuits.Generate(circuits.GenConfig{Seed: 12, NumPIs: 16, NumGates: 300, NumPOs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, errI := defect.Inject(c, ds); errI != nil {
			continue
		}
		_, res, active := diagnoseCompressed(t, c, 8, ds, seed)
		if !active || res == nil {
			continue
		}
		if len(res.Multiplet) > 0 && res.UnexplainedBits > len(res.Evidence)/2 {
			t.Errorf("seed %d: more than half the evidence unexplained (%d/%d)",
				seed, res.UnexplainedBits, len(res.Evidence))
		}
	}
}

// TestIdentityCompactorMatchesCore pins the shared pipeline: through a
// compactor that passes every PO to its own output, compressed-space
// diagnosis sees exactly the PO datalog, so its ranking — names,
// equivalence classes, TFSF and TPSF — must equal core.Diagnose's with
// refinement and the X-check off.
func TestIdentityCompactorMatchesCore(t *testing.T) {
	c, err := circuits.Generate(circuits.GenConfig{Seed: 12, NumPIs: 16, NumGates: 300, NumPOs: 16})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := atpg.Generate(c, atpg.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	id := &Compactor{NumPOs: len(c.POs), NumOut: len(c.POs)}
	for po := range c.POs {
		id.Assign = append(id.Assign, []int{po})
		id.poOuts = append(id.poOuts, []int{po})
	}
	render := func(res *core.Result) []string {
		var out []string
		for _, cd := range res.Ranked {
			line := fmt.Sprintf("%s TFSF=%d TPSF=%d", cd.Name(c), cd.TFSF, cd.TPSF)
			for _, e := range cd.Equivalent {
				line += " ≡ " + e.Name(c)
			}
			out = append(out, line)
		}
		return append(out, fmt.Sprintf("multiplet=%d evidence=%d unexplained=%d", len(res.Multiplet), len(res.Evidence), res.UnexplainedBits))
	}
	devices := 0
	for seed := int64(0); devices < 12 && seed < 60; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 2})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := defect.Inject(c, ds)
		if err != nil {
			continue
		}
		log, err := tester.ApplyTest(c, dev, tests.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		if len(log.Fails) == 0 {
			continue
		}
		devices++
		want, err := core.Diagnose(c, tests.Patterns, log, core.Config{DisableBridgeSearch: true, DisableXConsistency: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Diagnose(c, tests.Patterns, id.CompressDatalog(log), id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := strings.Join(render(got), "\n"), strings.Join(render(want), "\n"); g != w {
			t.Fatalf("seed %d: identity-compacted diagnosis differs from core\n got:\n%s\nwant:\n%s", seed, g, w)
		}
	}
	if devices < 12 {
		t.Fatalf("only %d activated devices", devices)
	}
}

// TestFullyAliasedPatternPasses: a predicted pattern whose errors all
// cancel in the compactor must read as passing, so faults that differ
// only there stay one equivalence class. Here o0 = a and o1 = a AND b
// share the single compressed output: a sa0 errs on both POs under 11
// (aliased) and on o0 under 10, while b sa1 and o1 sa1 err on o1 under 10
// only, so all three compress to the same syndrome.
func TestFullyAliasedPatternPasses(t *testing.T) {
	c := netlist.NewCircuit("alias")
	a := c.MustAddGate(netlist.Input, "a")
	b := c.MustAddGate(netlist.Input, "b")
	o0 := c.MustAddGate(netlist.Buf, "o0", a)
	o1 := c.MustAddGate(netlist.And, "o1", a, b)
	for _, po := range []netlist.NetID{o0, o1} {
		if err := c.MarkPO(po); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	pats := []sim.Pattern{{logic.One, logic.One}, {logic.One, logic.Zero}}
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	cp := &Compactor{NumPOs: 2, NumOut: 1, Assign: [][]int{{0, 1}}, poOuts: [][]int{{0}, {0}}}
	log := cp.CompressDatalog(tester.FromSyndrome("alias", fs.SimulateStuckAt(fault.StuckAt{Net: a})))
	res, err := Diagnose(c, pats, log, cp, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Multiplet) != 1 {
		t.Fatalf("multiplet %v, want one class", res.MultipletNets())
	}
	got := map[string]bool{res.Multiplet[0].Name(c): true}
	for _, e := range res.Multiplet[0].Equivalent {
		got[e.Name(c)] = true
	}
	for _, want := range []string{"a sa0", "b sa1", "o1 sa1"} {
		if !got[want] {
			t.Errorf("class %v misses %s", got, want)
		}
	}
}
