package core

import (
	"testing"

	"multidiag/internal/circuits"
	"multidiag/internal/defect"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// truncatedFixture is c17 with G16 stuck-at-0 under exhaustive patterns,
// its datalog cut by a fail memory of half its fail bits so that failing
// patterns lie past the cut.
func truncatedFixture(t *testing.T) (c *netlist.Circuit, pats []sim.Pattern, full, log *tester.Datalog) {
	t.Helper()
	c = circuits.C17()
	pats = exhaustivePatterns(5)
	dev, err := defect.Inject(c, []defect.Defect{{Kind: defect.StuckNet, Net: c.NetByName("G16"), Value1: false}})
	if err != nil {
		t.Fatal(err)
	}
	if full, err = tester.ApplyTest(c, dev, pats); err != nil {
		t.Fatal(err)
	}
	log = full.Truncate(full.NumFailBits() / 2)
	failing := full.FailingPatterns()
	if !log.Truncated || failing[len(failing)-1] <= log.TruncatedAfter {
		t.Fatalf("fixture leaves no failing pattern past the cut: %+v", log)
	}
	return c, pats, full, log
}

// TestTruncatedDatalogUnobservedNotMispredicted: the tester never observed
// the bits past the cut, so the injected fault, which predicts exactly the
// full datalog, mispredicts nothing on the truncated one.
func TestTruncatedDatalogUnobservedNotMispredicted(t *testing.T) {
	c, pats, _, log := truncatedFixture(t)
	res, err := Diagnose(c, pats, log, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g16 := fault.StuckAt{Net: c.NetByName("G16"), Value1: false}
	for _, cd := range res.Ranked {
		if cd.Fault != g16 {
			continue
		}
		if cd.TPSF != 0 || cd.TFSF != log.NumFailBits() {
			t.Fatalf("%s: TFSF=%d TPSF=%d, want TFSF=%d TPSF=0", cd.Name(c), cd.TFSF, cd.TPSF, log.NumFailBits())
		}
		if len(cd.Models) != 1 || cd.Models[0].Mispredictions != 0 {
			t.Fatalf("%s: models %+v, want the stuck/open model alone with 0 mispredictions", cd.Name(c), cd.Models)
		}
		return
	}
	t.Fatalf("%s not ranked", g16.Name(c))
}

// TestBridgeFitTruncated checks bridgeFit against an injected dominant
// bridge on every aggressor of G16: its predicted failures count as
// covered where the truncated datalog records them, as mispredicted on
// unrecorded bits before the cut, and not at all from the cut on.
func TestBridgeFitTruncated(t *testing.T) {
	c, pats, _, log := truncatedFixture(t)
	evIndex := map[EvidenceBit]int{}
	for _, p := range log.FailingPatterns() {
		for _, po := range log.Fails[p].Members() {
			evIndex[EvidenceBit{Pattern: p, PO: po}] = len(evIndex)
		}
	}
	ev := newEvLookup(log, evIndex)
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.fill()
	victim := c.NetByName("G16")
	aggressors := bridgeAggressors(c, victim, cfg)
	if len(aggressors) == 0 {
		t.Fatal("G16 has no aggressors")
	}
	s := sim.New(c)
	for _, a := range aggressors {
		dev, err := defect.Inject(c, []defect.Defect{{Kind: defect.BridgeDefect, Net: victim, Aggressor: a, BridgeKind: fault.DominantBridge}})
		if err != nil {
			t.Fatal(err)
		}
		pred, err := tester.ApplyTest(c, dev, pats)
		if err != nil {
			t.Fatal(err)
		}
		wantCov, wantTPSF := 0, 0
		for p, fails := range pred.Fails {
			for _, po := range fails.Members() {
				switch {
				case log.Fails[p] != nil && log.Fails[p].Has(po):
					wantCov++
				case p < log.TruncatedAfter:
					wantTPSF++
				}
			}
		}
		cov, tpsf := bridgeFit(c, fs, s, victim, a, &ev, map[netlist.NetID]logic.PV64{})
		if cov != wantCov || tpsf != wantTPSF {
			t.Errorf("bridge G16<-%s: covered %d tpsf %d, want %d and %d", c.NameOf(a), cov, tpsf, wantCov, wantTPSF)
		}
	}
}
