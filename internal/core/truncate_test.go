package core

import (
	"math/rand"
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
		cov, tpsf := bridgeFit(fs, victim, a, &ev)
		if cov != wantCov || tpsf != wantTPSF {
			t.Errorf("bridge G16<-%s: covered %d tpsf %d, want %d and %d", c.NameOf(a), cov, tpsf, wantCov, wantTPSF)
		}
	}
}

// TestBridgeFitMatchesScalar: bridgeFit's (covered, mispredicted) counts
// equal those of a per-pattern EvalScalar run with the victim forced to
// the aggressor's fault-free value, on a plain and a truncated datalog,
// for every victim of c17 and a few victims of a 150-gate circuit under
// more than one word of patterns, some with X inputs.
func TestBridgeFitMatchesScalar(t *testing.T) {
	c17, pats17, full17, cut17 := truncatedFixture(t)
	big, patsBig, fullBig := randomBridgeFixture(t)
	cutBig := fullBig.Truncate(fullBig.NumFailBits() / 2)
	cfg := Config{}
	cfg.fill()
	for _, tc := range []struct {
		c      *netlist.Circuit
		pats   []sim.Pattern
		logs   []*tester.Datalog
		stride int
	}{
		{c17, pats17, []*tester.Datalog{full17, cut17}, 1},
		{big, patsBig, []*tester.Datalog{fullBig, cutBig}, 11},
	} {
		c := tc.c
		fs, err := fsim.NewFaultSim(c, tc.pats)
		if err != nil {
			t.Fatal(err)
		}
		good := make([][]logic.Value, len(tc.pats))
		for p, pat := range tc.pats {
			if good[p], err = sim.EvalScalar(c, pat, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, log := range tc.logs {
			evIndex := map[EvidenceBit]int{}
			for _, p := range log.FailingPatterns() {
				for _, po := range log.Fails[p].Members() {
					evIndex[EvidenceBit{Pattern: p, PO: po}] = len(evIndex)
				}
			}
			ev := newEvLookup(log, evIndex)
			for v := 0; v < c.NumGates(); v += tc.stride {
				victim := netlist.NetID(v)
				for _, a := range bridgeAggressors(c, victim, cfg) {
					wantCov, wantTPSF := 0, 0
					for p, pat := range tc.pats {
						bad, err := sim.EvalScalar(c, pat, map[netlist.NetID]logic.Value{victim: good[p][a]})
						if err != nil {
							t.Fatal(err)
						}
						for i, po := range c.POs {
							g, b := good[p][po], bad[po]
							if !g.IsKnown() || !b.IsKnown() || g == b {
								continue
							}
							switch {
							case log.Fails[p] != nil && log.Fails[p].Has(i):
								wantCov++
							case !log.Truncated || p < log.TruncatedAfter:
								wantTPSF++
							}
						}
					}
					cov, tpsf := bridgeFit(fs, victim, a, &ev)
					if cov != wantCov || tpsf != wantTPSF {
						t.Fatalf("%s truncated=%v bridge %s<-%s: covered %d tpsf %d, want %d and %d",
							c.Name, log.Truncated, c.NameOf(victim), c.NameOf(a), cov, tpsf, wantCov, wantTPSF)
					}
				}
			}
		}
	}
}

// randomBridgeFixture is a 150-gate circuit under 150 random patterns,
// every fifth carrying an X input, and the datalog of a device with two
// injected defects.
func randomBridgeFixture(t *testing.T) (*netlist.Circuit, []sim.Pattern, *tester.Datalog) {
	t.Helper()
	c, err := circuits.Generate(circuits.GenConfig{Seed: 5, NumPIs: 10, NumGates: 150, NumPOs: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	pats := make([]sim.Pattern, 150)
	for i := range pats {
		pats[i] = make(sim.Pattern, len(c.PIs))
		for j := range pats[i] {
			pats[i][j] = logic.FromBool(r.Intn(2) == 1)
		}
		if i%5 == 0 {
			pats[i][r.Intn(len(c.PIs))] = logic.X
		}
	}
	for seed := int64(1); ; seed++ {
		ds, err := defect.Sample(c, defect.CampaignConfig{Seed: seed, NumDefects: 2})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := defect.Inject(c, ds)
		if err != nil {
			continue
		}
		log, err := tester.ApplyTest(c, dev, pats)
		if err != nil {
			t.Fatal(err)
		}
		if fails := log.FailingPatterns(); len(fails) > 4 && fails[len(fails)-1] >= logic.W {
			return c, pats, log
		}
	}
}
