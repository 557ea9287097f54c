package dtpg

import (
	"testing"

	"math/rand"
	"multidiag/internal/atpg"

	"multidiag/internal/circuits"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

func TestFindDistinguishingBasic(t *testing.T) {
	c := circuits.C17()
	// G22 sa1 and G23 sa1 fail at different POs: trivially distinguishable.
	fa := fault.StuckAt{Net: c.NetByName("G22"), Value1: true}
	fb := fault.StuckAt{Net: c.NetByName("G23"), Value1: true}
	p, ok, err := FindDistinguishing(c, fa, fb, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("distinguishable pair not split")
	}
	diff, err := responsesDiffer(c, p, fa, fb)
	if err != nil {
		t.Fatal(err)
	}
	if !diff {
		t.Fatal("returned pattern does not distinguish")
	}
}

func TestFindDistinguishingEquivalent(t *testing.T) {
	// a -> NOT -> z: "a sa0" and "z sa1" are functionally equivalent; no
	// pattern can split them.
	c := netlist.NewCircuit("inv")
	a := c.MustAddGate(netlist.Input, "a")
	z := c.MustAddGate(netlist.Not, "z", a)
	if err := c.MarkPO(z); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	_, ok, err := FindDistinguishing(c,
		fault.StuckAt{Net: a, Value1: false},
		fault.StuckAt{Net: z, Value1: true},
		Config{Seed: 2, RandomBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("functionally equivalent pair 'split'")
	}
}

// TestFindDistinguishingStructuralPhase engineers a pair that random search
// with a tiny budget misses but the hold-site phase finds: two faults deep
// in an AND-tree where excitation is a low-probability event.
func TestFindDistinguishingStructuralPhase(t *testing.T) {
	c, err := circuits.MuxTree(3)
	if err != nil {
		t.Fatal(err)
	}
	// Faults on two different data inputs: distinguishing needs the select
	// lines to address one of them (probability 1/8 per side).
	fa := fault.StuckAt{Net: c.NetByName("d0"), Value1: true}
	fb := fault.StuckAt{Net: c.NetByName("d7"), Value1: true}
	p, ok, err := FindDistinguishing(c, fa, fb, Config{Seed: 3, RandomBudget: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("tiny budget missed; acceptable for this stochastic phase")
	}
	diff, _ := responsesDiffer(c, p, fa, fb)
	if !diff {
		t.Fatal("pattern does not distinguish")
	}
}

func TestDistinguishSet(t *testing.T) {
	c := circuits.C17()
	pairs := []Pair{
		{A: fault.StuckAt{Net: c.NetByName("G22"), Value1: true}, B: fault.StuckAt{Net: c.NetByName("G23"), Value1: true}},
		{A: fault.StuckAt{Net: c.NetByName("G10"), Value1: false}, B: fault.StuckAt{Net: c.NetByName("G19"), Value1: false}},
	}
	pats, stuck, err := DistinguishSet(c, pairs, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(stuck) != 0 {
		t.Fatalf("pairs left unsplit: %v", stuck)
	}
	if len(pats) == 0 || len(pats) > 2 {
		t.Fatalf("pattern count %d", len(pats))
	}
}

// TestImproveResolution: a deliberately weak test set leaves an equivalence
// class; the loop must shrink multiplet sites without losing the hit.
func TestImproveResolution(t *testing.T) {
	c, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	// Weak initial set: random patterns only, no PODEM — low diagnostic
	// resolution by construction.
	gen, err := atpg.Generate(c, atpg.Config{Seed: 21, RandomBudget: 16, RandomBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	pats := gen.Patterns
	target := c.NetByName("t1_4")
	ds := []defect.Defect{{Kind: defect.StuckNet, Net: target, Value1: true}}
	device, err := defect.Inject(c, ds)
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(c, device, pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Fails) == 0 {
		t.Skip("weak set did not activate the defect")
	}
	apply := func(extra []sim.Pattern) (*tester.Datalog, error) {
		return tester.ApplyTest(c, device, extra)
	}
	lr, err := ImproveResolution(c, pats, log, apply, core.Config{}, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if lr.ResolutionAfter > lr.ResolutionBefore {
		t.Fatalf("resolution worsened: %d → %d", lr.ResolutionBefore, lr.ResolutionAfter)
	}
	if lr.Rounds > 0 && lr.PatternsAdded == 0 {
		t.Fatal("rounds ran without adding patterns")
	}
	// The defect must still be localized after refinement.
	found := false
	for _, cd := range lr.Result.Multiplet {
		for _, n := range cd.Nets() {
			if n == target {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("defect lost during refinement (res %d→%d)", lr.ResolutionBefore, lr.ResolutionAfter)
	}
	// The merged datalog must stay consistent with the pattern set.
	if lr.Datalog.NumPatterns != len(lr.Patterns) {
		t.Fatal("datalog/pattern count diverged")
	}
}

// TestImproveResolutionNoAmbiguity: a strong test set with a unique
// candidate should converge in zero rounds.
func TestImproveResolutionNoAmbiguity(t *testing.T) {
	c := circuits.C17()
	gen, err := atpg.Generate(c, atpg.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}}
	device, err := defect.Inject(c, ds)
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(c, device, gen.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	apply := func(extra []sim.Pattern) (*tester.Datalog, error) {
		calls++
		return tester.ApplyTest(c, device, extra)
	}
	lr, err := ImproveResolution(c, gen.Patterns, log, apply, core.Config{}, Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if lr.ResolutionBefore == 1 && calls != 0 {
		t.Fatal("tester called though nothing was ambiguous")
	}
}

func TestResponsesDifferXSafety(t *testing.T) {
	c := circuits.C17()
	p := make(sim.Pattern, 5)
	for i := range p {
		p[i] = logic.X
	}
	diff, err := responsesDiffer(c, p,
		fault.StuckAt{Net: c.NetByName("G22"), Value1: true},
		fault.StuckAt{Net: c.NetByName("G23"), Value1: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatal("all-X pattern cannot determinately distinguish")
	}
}

// TestDistinguishingAgreesWithSyndromes: when FindDistinguishing succeeds,
// appending the pattern must separate the two faults' syndromes.
func TestDistinguishingAgreesWithSyndromes(t *testing.T) {
	c, err := circuits.ALUSlice(4)
	if err != nil {
		t.Fatal(err)
	}
	fa := fault.StuckAt{Net: c.NetByName("sum1"), Value1: true}
	fb := fault.StuckAt{Net: c.NetByName("xori1"), Value1: true}
	p, ok, err := FindDistinguishing(c, fa, fb, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("pair not distinguishable within budget")
	}
	fs, err := fsim.NewFaultSim(c, []sim.Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	if fs.SimulateStuckAt(fa).Equal(fs.SimulateStuckAt(fb)) {
		t.Fatal("distinguishing pattern yields identical syndromes")
	}
}

// demo500 is the examples/resolution configuration: a 500-gate circuit,
// five random patterns and one stuck defect, with the device's datalog.
func demo500(t *testing.T) (c, device *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) {
	t.Helper()
	var err error
	c, err = circuits.Generate(circuits.GenConfig{
		Name: "demo500", Seed: 500, NumPIs: 20, NumGates: 500, NumPOs: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	pats = make([]sim.Pattern, 5)
	for i := range pats {
		p := make(sim.Pattern, len(c.PIs))
		for j := range p {
			p[j] = logic.FromBool(r.Intn(2) == 1)
		}
		pats[i] = p
	}
	ds, err := defect.Sample(c, defect.CampaignConfig{Seed: 5, NumDefects: 1, MixStuck: 1})
	if err != nil {
		t.Fatal(err)
	}
	device, err = defect.Inject(c, ds)
	if err != nil {
		t.Fatal(err)
	}
	log, err = tester.ApplyTest(c, device, pats)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Fails) == 0 {
		t.Skip("not activated")
	}
	return c, device, pats, log
}

// TestImproveResolutionRunsRounds reproduces a known-ambiguous case (the
// examples/resolution configuration) so the loop actually executes: a
// 500-gate circuit, five random patterns, one stuck defect whose initial
// diagnosis carries an equivalence class that one distinguishing pattern
// splits.
func TestImproveResolutionRunsRounds(t *testing.T) {
	c, device, pats, log := demo500(t)
	apply := func(extra []sim.Pattern) (*tester.Datalog, error) {
		return tester.ApplyTest(c, device, extra)
	}
	lr, err := ImproveResolution(c, pats, log, apply, core.Config{}, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if lr.ResolutionBefore <= 1 {
		t.Skip("configuration no longer ambiguous")
	}
	if lr.Rounds == 0 || lr.PatternsAdded == 0 {
		t.Fatalf("loop did not run: rounds=%d added=%d", lr.Rounds, lr.PatternsAdded)
	}
	if lr.ResolutionAfter >= lr.ResolutionBefore {
		t.Fatalf("resolution not improved: %d → %d", lr.ResolutionBefore, lr.ResolutionAfter)
	}
}

// TestImproveResolutionTesterMismatch: a tester returning a malformed
// datalog must surface as an error, not corrupt the merge.
func TestImproveResolutionTesterMismatch(t *testing.T) {
	c, _, pats, log := demo500(t)
	bad := func(extra []sim.Pattern) (*tester.Datalog, error) {
		return &tester.Datalog{NumPatterns: len(extra) + 1, NumPOs: len(c.POs)}, nil
	}
	lr, err := ImproveResolution(c, pats, log, bad, core.Config{}, Config{Seed: 9})
	if err == nil && lr.Rounds > 0 {
		t.Fatal("malformed tester datalog accepted")
	}
}

// TestImproveResolutionRejectsTruncated: the loop appends fully observed
// patterns after the original ones, which a truncated datalog, unobserved
// from its cut to its end, cannot hold. A truncated datalog is refused
// before the tester is called, and so is a truncated re-test.
func TestImproveResolutionRejectsTruncated(t *testing.T) {
	c, device, pats, log := demo500(t)
	cut := log.Truncate(1)
	if !cut.Truncated {
		t.Fatalf("a 1-bit fail memory kept all of %v", log.Fails)
	}
	retests := 0
	apply := func(extra []sim.Pattern) (*tester.Datalog, error) {
		retests++
		return tester.ApplyTest(c, device, extra)
	}
	if _, err := ImproveResolution(c, pats, cut, apply, core.Config{}, Config{Seed: 9}); err == nil || retests != 0 {
		t.Fatalf("truncated datalog: err %v after %d re-tests, want an error before any", err, retests)
	}
	truncatedRetest := func(extra []sim.Pattern) (*tester.Datalog, error) {
		retests++
		d, err := tester.ApplyTest(c, device, extra)
		if err == nil {
			d.Truncated, d.TruncatedAfter = true, 0
		}
		return d, err
	}
	_, err := ImproveResolution(c, pats, log, truncatedRetest, core.Config{}, Config{Seed: 9})
	if retests == 0 {
		t.Skip("configuration no longer ambiguous")
	}
	if err == nil {
		t.Fatal("truncated re-test accepted")
	}
}
