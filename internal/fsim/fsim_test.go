package fsim

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"multidiag/internal/bitset"
	"multidiag/internal/circuits"
	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
)

func c17(t testing.TB) *netlist.Circuit { t.Helper(); return circuits.C17() }

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

func randomPatterns(r *rand.Rand, npi, n int) []sim.Pattern {
	pats := make([]sim.Pattern, n)
	for i := range pats {
		p := make(sim.Pattern, npi)
		for j := range p {
			p[j] = logic.FromBool(r.Intn(2) == 1)
		}
		pats[i] = p
	}
	return pats
}

// refSyndrome computes a stuck-at syndrome with plain scalar simulation.
func refSyndrome(t *testing.T, c *netlist.Circuit, pats []sim.Pattern, f fault.StuckAt) *Syndrome {
	t.Helper()
	syn := NewSyndrome(len(pats), len(c.POs))
	fv := logic.Zero
	if f.Value1 {
		fv = logic.One
	}
	for p, pat := range pats {
		good, err := sim.EvalScalar(c, pat, nil)
		if err != nil {
			t.Fatal(err)
		}
		bad, err := sim.EvalScalar(c, pat, map[netlist.NetID]logic.Value{f.Net: fv})
		if err != nil {
			t.Fatal(err)
		}
		for i, po := range c.POs {
			if good[po] != bad[po] && good[po].IsKnown() && bad[po].IsKnown() {
				syn.AddFail(p, i)
			}
		}
	}
	return syn
}

func TestSyndromeBasics(t *testing.T) {
	s := NewSyndrome(4, 3)
	if s.Detected() || s.NumFailBits() != 0 {
		t.Fatal("fresh syndrome detected")
	}
	s.AddFail(1, 0)
	s.AddFail(1, 2)
	s.AddFail(3, 1)
	if !s.Detected() || s.NumFailBits() != 3 {
		t.Fatalf("fail bits = %d", s.NumFailBits())
	}
	fp := s.FailingPatterns()
	if len(fp) != 2 || fp[0] != 1 || fp[1] != 3 {
		t.Fatalf("failing patterns %v", fp)
	}
	s2 := NewSyndrome(4, 3)
	s2.AddFail(1, 0)
	s2.AddFail(1, 2)
	s2.AddFail(3, 1)
	if !s.Equal(s2) {
		t.Fatal("equal syndromes unequal")
	}
	s2.AddFail(0, 0)
	if s.Equal(s2) {
		t.Fatal("unequal syndromes equal")
	}
	if s.Equal(NewSyndrome(5, 3)) {
		t.Fatal("size mismatch not detected")
	}
	// nil vs empty set equivalence
	s3 := NewSyndrome(4, 3)
	s4 := NewSyndrome(4, 3)
	s3.AddFail(0, 0)
	s3.Fails[0].Remove(0) // now empty but non-nil
	if !s3.Equal(s4) || !s4.Equal(s3) {
		t.Fatal("empty/nil fail sets must compare equal")
	}
}

// TestPPSFPMatchesScalar: the cone-limited packed fault simulator must agree
// with the brute-force scalar reference on every stuck-at fault of c17 under
// exhaustive patterns.
func TestPPSFPMatchesScalarC17(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fault.List(c) {
		got := fs.SimulateStuckAt(f)
		want := refSyndrome(t, c, pats, f)
		if !got.Equal(want) {
			t.Fatalf("fault %s: syndromes differ", f.Name(c))
		}
	}
}

func TestPPSFPMatchesScalarRandom(t *testing.T) {
	c, err := circuits.Generate(circuits.GenConfig{Seed: 9, NumPIs: 10, NumGates: 150, NumPOs: 6})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	pats := randomPatterns(r, len(c.PIs), 100)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.List(c)
	// Sample the universe for test speed.
	for i := 0; i < 60; i++ {
		f := faults[r.Intn(len(faults))]
		got := fs.SimulateStuckAt(f)
		want := refSyndrome(t, c, pats, f)
		if !got.Equal(want) {
			t.Fatalf("fault %s: syndromes differ", f.Name(c))
		}
	}
}

// refSyndromes computes refSyndrome for every fault, simulating the
// fault-free machine once per pattern.
func refSyndromes(t *testing.T, c *netlist.Circuit, pats []sim.Pattern, faults []fault.StuckAt) []*Syndrome {
	t.Helper()
	out := make([]*Syndrome, len(faults))
	for i := range out {
		out[i] = NewSyndrome(len(pats), len(c.POs))
	}
	for p, pat := range pats {
		good, err := sim.EvalScalar(c, pat, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range faults {
			bad, err := sim.EvalScalar(c, pat, map[netlist.NetID]logic.Value{f.Net: logic.FromBool(f.Value1)})
			if err != nil {
				t.Fatal(err)
			}
			for k, po := range c.POs {
				if good[po] != bad[po] && good[po].IsKnown() && bad[po].IsKnown() {
					out[i].AddFail(p, k)
				}
			}
		}
	}
	return out
}

// checkStuckAt reports, through t.Logf, the first fault whose syndrome on
// fs differs from want, simulating the faults in the given order.
func checkStuckAt(t *testing.T, c *netlist.Circuit, fs *FaultSim, faults []fault.StuckAt, want []*Syndrome, order []int, mode string) bool {
	for _, i := range order {
		if got := fs.SimulateStuckAt(faults[i]); !got.Equal(want[i]) {
			t.Logf("%s: fault %s: syndrome differs from the scalar reference", mode, faults[i].Name(c))
			return false
		}
	}
	return true
}

// TestSimulateStuckAtProperty: on generated circuits of up to 150 gates
// under more than one word of patterns, a quarter of them carrying an X
// input, every stuck-at fault's syndrome equals the scalar reference on a
// fresh simulator, again on the same (warm) simulator, with a shared cone
// cache of capacity 1 (nearly every fill evicts), and from forks running
// concurrently over one shared cache in different fault orders.
func TestSimulateStuckAtProperty(t *testing.T) {
	prop := func(seed int64, gates, npats uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := circuits.Generate(circuits.GenConfig{Seed: seed, NumPIs: 6 + r.Intn(5), NumGates: 20 + int(gates)%131, NumPOs: 2 + r.Intn(5)})
		if err != nil {
			t.Fatal(err)
		}
		pats := randomPatterns(r, len(c.PIs), logic.W+1+int(npats)%100)
		for _, p := range pats {
			if r.Intn(4) == 0 {
				p[r.Intn(len(p))] = logic.X
			}
		}
		faults := fault.List(c)
		want := refSyndromes(t, c, pats, faults)
		order := r.Perm(len(faults))

		fs, err := NewFaultSim(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		if !checkStuckAt(t, c, fs, faults, want, order, "cold") || !checkStuckAt(t, c, fs, faults, want, order, "warm") {
			return false
		}
		tiny, err := NewFaultSim(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		tiny.AttachCache(NewConeCache(1))
		if !checkStuckAt(t, c, tiny, faults, want, order, "capacity 1") {
			return false
		}

		shared, err := NewFaultSim(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		shared.AttachCache(NewConeCache(0))
		const forks = 4
		ok := make([]bool, forks)
		var wg sync.WaitGroup
		for g := 0; g < forks; g++ {
			k, perm := shared.Fork(), r.Perm(len(faults))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ok[g] = checkStuckAt(t, c, k, faults, want, perm, "concurrent fork")
			}(g)
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestSimulateStuckAtRegions pins the structures a fanout-free region
// walk must get right, on a hand-built circuit under every three-valued
// input assignment: a NOT/BUF chain ending in a gate whose output p is a
// primary output read by another output gate (a fault behind p can fail p
// alone, where the reader masks it), a net read twice by one gate (a
// stem, though it has one reader), and a stem reconverging at an XOR
// through a NOT and a BUF (it never reaches that XOR's output).
func TestSimulateStuckAtRegions(t *testing.T) {
	c := netlist.NewCircuit("regions")
	a := c.MustAddGate(netlist.Input, "a")
	b := c.MustAddGate(netlist.Input, "b")
	cc := c.MustAddGate(netlist.Input, "c")
	d := c.MustAddGate(netlist.Input, "d")
	n1 := c.MustAddGate(netlist.Not, "n1", a)
	n2 := c.MustAddGate(netlist.Buf, "n2", n1)
	n3 := c.MustAddGate(netlist.Not, "n3", n2)
	p := c.MustAddGate(netlist.And, "p", n3, b)
	q := c.MustAddGate(netlist.Or, "q", p, cc)
	x := c.MustAddGate(netlist.Not, "x", cc)
	y := c.MustAddGate(netlist.Nand, "y", x, x)
	u := c.MustAddGate(netlist.Not, "u", d)
	v := c.MustAddGate(netlist.Buf, "v", d)
	z := c.MustAddGate(netlist.Xor, "z", u, v)
	o := c.MustAddGate(netlist.Xnor, "o", z, y)
	for _, po := range []netlist.NetID{p, q, o} {
		if err := c.MarkPO(po); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	values := []logic.Value{logic.Zero, logic.One, logic.X}
	var pats []sim.Pattern
	for m := 0; m < 81; m++ {
		pat := make(sim.Pattern, 4)
		for i, k := 0, m; i < 4; i, k = i+1, k/3 {
			pat[i] = values[k%3]
		}
		pats = append(pats, pat)
	}
	faults := fault.List(c)
	want := refSyndromes(t, c, pats, faults)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, len(faults))
	for i := range order {
		order[i] = i
	}
	for _, mode := range []string{"cold", "warm"} {
		if !checkStuckAt(t, c, fs, faults, want, order, mode) {
			t.FailNow()
		}
	}
	// The fixture must exercise what it claims: a fault behind p that
	// fails p alone on some pattern.
	alone := false
	for _, f := range []fault.StuckAt{{Net: n1}, {Net: n1, Value1: true}} {
		for _, set := range fs.SimulateStuckAt(f).Fails {
			alone = alone || set != nil && set.Has(0) && !set.Has(1)
		}
	}
	if !alone {
		t.Fatal("no fault behind p fails p without q")
	}
}

func TestGoodValueAndPOSet(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < len(pats); p += 7 {
		good, err := sim.EvalScalar(c, pats[p], nil)
		if err != nil {
			t.Fatal(err)
		}
		for id := range c.Gates {
			if fs.GoodValue(netlist.NetID(id), p) != good[id] {
				t.Fatalf("GoodValue mismatch at pattern %d net %d", p, id)
			}
		}
	}
}

func TestSimulateOpen(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, _ := NewFaultSim(c, pats)
	n := c.NetByName("G16")
	o := fault.Open{Net: n, StuckValue1: true}
	got := fs.SimulateOpen(o)
	want := refSyndrome(t, c, pats, fault.StuckAt{Net: n, Value1: true})
	if !got.Equal(want) {
		t.Fatal("open syndrome must match equivalent stuck-at")
	}
}

func TestSimulateXAt(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, _ := NewFaultSim(c, pats)
	n := c.NetByName("G16")
	xs := fs.SimulateXAt([]netlist.NetID{n})
	// Property: if stuck-at-v at n is observed at PO o under pattern p, then
	// X at n must reach o under p (X-propagation over-approximates).
	for _, f := range []fault.StuckAt{{Net: n, Value1: false}, {Net: n, Value1: true}} {
		syn := fs.SimulateStuckAt(f)
		for p, fails := range syn.Fails {
			if fails == nil {
				continue
			}
			for _, po := range fails.Members() {
				if xs[p] == nil || !xs[p].Has(po) {
					t.Fatalf("X at %s misses PO %d on pattern %d though %s is observed there",
						c.NameOf(n), po, p, f.Name(c))
				}
			}
		}
	}
	// And X must never reach a PO outside the structural fanout cone.
	for p := range xs {
		if xs[p] == nil {
			continue
		}
		reach := map[int]bool{}
		for i, po := range c.POs {
			if c.FanoutCone(n)[po] {
				reach[i] = true
			}
		}
		for _, po := range xs[p].Members() {
			if !reach[po] {
				t.Fatalf("X escaped the structural cone to PO %d", po)
			}
		}
	}
}

// TestSimulateXAtMatchesScalar: with every site forced to X, SimulateXAt
// reports on each pattern exactly the POs that EvalScalar leaves at X,
// including POs that are X in the fault-free machine already.
func TestSimulateXAtMatchesScalar(t *testing.T) {
	goodX := 0
	for seed := int64(0); seed < 4; seed++ {
		c, err := circuits.Generate(circuits.GenConfig{Seed: seed, NumPIs: 8, NumGates: 100, NumPOs: 6})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed + 90))
		pats := randomPatterns(r, len(c.PIs), 2*logic.W+5)
		for _, p := range pats {
			if r.Intn(3) == 0 {
				p[r.Intn(len(p))] = logic.X
			}
		}
		fs, err := NewFaultSim(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 6; trial++ {
			sites := make([]netlist.NetID, 2+r.Intn(3))
			force := map[netlist.NetID]logic.Value{}
			for i := range sites {
				sites[i] = netlist.NetID(r.Intn(c.NumGates()))
				force[sites[i]] = logic.X
			}
			xs := fs.SimulateXAt(sites)
			for p, pat := range pats {
				vals, err := sim.EvalScalar(c, pat, force)
				if err != nil {
					t.Fatal(err)
				}
				for i, po := range c.POs {
					want := vals[po] == logic.X
					if got := xs[p] != nil && xs[p].Has(i); got != want {
						t.Fatalf("seed %d trial %d pattern %d PO %d: X reported %v, EvalScalar says %v", seed, trial, p, i, got, want)
					}
					if fs.GoodValue(po, p) == logic.X {
						goodX++
					}
				}
			}
		}
	}
	if goodX == 0 {
		t.Fatal("fixture has no output that is X in the fault-free machine")
	}
}

// TestPropagateMatchesScalarForce: on generated circuits under more than
// one word of patterns, some carrying X inputs, forcing one to three nets
// (primary inputs, nets downstream of another forced net and repeated
// nets included) to random three-valued words gives, at every PO of every
// pattern, the value EvalScalar computes with the same nets forced, and
// Propagate reports exactly the POs whose word changed.
func TestPropagateMatchesScalarForce(t *testing.T) {
	values := []logic.Value{logic.Zero, logic.One, logic.X}
	for seed := int64(0); seed < 4; seed++ {
		c, err := circuits.Generate(circuits.GenConfig{Seed: seed, NumPIs: 8, NumGates: 80, NumPOs: 5})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed + 7))
		pats := randomPatterns(r, len(c.PIs), logic.W+20)
		for _, p := range pats {
			if r.Intn(4) == 0 {
				p[r.Intn(len(p))] = logic.X
			}
		}
		fs, err := NewFaultSim(c, pats)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			forces := make([]Force, 1+r.Intn(3))
			for i := range forces {
				n := netlist.NetID(r.Intn(c.NumGates()))
				switch {
				case i == 0 && trial%5 == 0:
					n = c.PIs[r.Intn(len(c.PIs))]
				case i > 0 && r.Intn(2) == 0 && len(c.Gates[forces[i-1].Net].Fanout) > 0:
					fo := c.Gates[forces[i-1].Net].Fanout
					n = fo[r.Intn(len(fo))]
				case i > 0 && r.Intn(4) == 0:
					n = forces[i-1].Net
				}
				var v logic.PV64
				for slot := uint(0); slot < logic.W; slot++ {
					v = v.Set(slot, values[r.Intn(3)])
				}
				forces[i] = Force{Net: n, Val: v}
			}
			for w := 0; w < fs.NumWords(); w++ {
				got := make([]logic.PV64, len(c.POs))
				for i, po := range c.POs {
					got[i] = fs.GoodWord(po, w)
				}
				for _, pw := range fs.Propagate(w, forces...) {
					if pw.Val == fs.GoodWord(c.POs[pw.PO], w) {
						t.Fatalf("seed %d trial %d: PO %d reported with its fault-free word", seed, trial, pw.PO)
					}
					got[pw.PO] = pw.Val
				}
				for p := w * logic.W; p < min((w+1)*logic.W, len(pats)); p++ {
					force := map[netlist.NetID]logic.Value{}
					for _, f := range forces {
						force[f.Net] = f.Val.Get(uint(p % logic.W))
					}
					want, err := sim.EvalScalar(c, pats[p], force)
					if err != nil {
						t.Fatal(err)
					}
					for i, po := range c.POs {
						if g := got[i].Get(uint(p % logic.W)); g != want[po] {
							t.Fatalf("seed %d trial %d pattern %d PO %s: Propagate %v, EvalScalar %v",
								seed, trial, p, c.NameOf(po), g, want[po])
						}
					}
				}
			}
		}
	}
}

// TestPropagateNoChange: forcing nets to their own fault-free words
// reaches no output and evaluates no gate.
func TestPropagateNoChange(t *testing.T) {
	c := c17(t)
	fs, _ := NewFaultSim(c, exhaustivePatterns(5))
	reg := obs.NewRegistry()
	fs.Observe(reg)
	g11, g22 := c.NetByName("G11"), c.NetByName("G22")
	if got := fs.Propagate(0, Force{Net: g11, Val: fs.GoodWord(g11, 0)}, Force{Net: g22, Val: fs.GoodWord(g22, 0)}); len(got) != 0 {
		t.Fatalf("no-op forces reached %d outputs", len(got))
	}
	if n := reg.Counter("fsim.cone_gate_word_evals").Value(); n != 0 {
		t.Fatalf("no-op forces evaluated %d gate words", n)
	}
}

func TestCoverage(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	det, total, err := Coverage(c, pats, fault.Collapse(c))
	if err != nil {
		t.Fatal(err)
	}
	if det != total {
		t.Fatalf("exhaustive patterns must detect all collapsed faults: %d/%d", det, total)
	}
	// A single pattern detects strictly fewer.
	det1, _, err := Coverage(c, pats[:1], fault.Collapse(c))
	if err != nil {
		t.Fatal(err)
	}
	if det1 >= det {
		t.Fatalf("single pattern detects %d ≥ %d", det1, det)
	}
}

func TestDictionary(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	faults := fault.Collapse(c)
	d, err := BuildDictionary(c, pats, faults)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := NewFaultSim(c, pats)
	// Looking up each fault's own syndrome must return (at least) itself.
	for i, f := range faults {
		obs := fs.SimulateStuckAt(f)
		hits := d.Lookup(obs)
		found := false
		for _, h := range hits {
			if h == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("dictionary lookup of %s missed itself", f.Name(c))
		}
	}
	// An impossible syndrome returns no hits.
	bogus := NewSyndrome(len(pats), len(c.POs))
	for p := 0; p < len(pats); p++ {
		bogus.AddFail(p, 0)
		bogus.AddFail(p, 1)
	}
	if hits := d.Lookup(bogus); len(hits) != 0 {
		t.Fatalf("bogus syndrome matched %v", hits)
	}
}

func TestNewFaultSimEmpty(t *testing.T) {
	c := c17(t)
	if _, err := NewFaultSim(c, nil); err == nil {
		t.Fatal("empty pattern set accepted")
	}
}

// --- CPT tests ---

func TestCPTMatchesBruteForceC17(t *testing.T) {
	c := c17(t)
	for m, p := range exhaustivePatterns(5) {
		for i, po := range c.POs {
			got, _ := traceOne(t, c, p, i)
			want, err := BruteForceCritical(c, p, po)
			if err != nil {
				t.Fatal(err)
			}
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("pattern %05b po %s net %s: cpt %v brute %v",
						m, c.NameOf(po), c.NameOf(netlist.NetID(id)), got[id], want[id])
				}
			}
		}
	}
}

func TestCPTMatchesBruteForceRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		c, err := circuits.Generate(circuits.GenConfig{Seed: seed, NumPIs: 9, NumGates: 120, NumPOs: 5})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed + 50))
		for trial := 0; trial < 10; trial++ {
			p := randomPatterns(r, len(c.PIs), 1)[0]
			i := r.Intn(len(c.POs))
			got, _ := traceOne(t, c, p, i)
			want, err := BruteForceCritical(c, p, c.POs[i])
			if err != nil {
				t.Fatal(err)
			}
			for id := range got {
				if got[id] != want[id] {
					t.Fatalf("seed %d trial %d po %s net %s: cpt %v brute %v",
						seed, trial, c.NameOf(c.POs[i]), c.NameOf(netlist.NetID(id)), got[id], want[id])
				}
			}
		}
	}
}

// TestCPTMatchesBruteForceProperty: on generated circuits of up to 150
// gates under more than one word of patterns, some of them carrying X
// inputs, with a random set of failing outputs on every pattern, the
// exact tracer's critical set for each (determinate pattern, failing PO)
// equals BruteForceCritical, and the hypotheses it yields are the
// critical nets at the complement of their EvalScalar values.
func TestCPTMatchesBruteForceProperty(t *testing.T) {
	prop := func(seed int64, gates, npats uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := circuits.Generate(circuits.GenConfig{Seed: seed, NumPIs: 6 + r.Intn(5), NumGates: 20 + int(gates)%131, NumPOs: 2 + r.Intn(5)})
		if err != nil {
			t.Fatal(err)
		}
		pats := randomPatterns(r, len(c.PIs), logic.W+1+int(npats)%100)
		fails := make([][]int, len(pats))
		for p, pat := range pats {
			if r.Intn(4) == 0 {
				pat[r.Intn(len(pat))] = logic.X
			}
			for i := range c.POs {
				if r.Intn(3) == 0 {
					fails[p] = append(fails[p], i)
				}
			}
		}
		workers := 1 + r.Intn(3)
		crit, seeds := traceFails(t, c, pats, fails, workers, false)
		// Tracing on a store a scoring pass has filled must not change a
		// verdict.
		if warm, warmSeeds := traceFails(t, c, pats, fails, workers, true); !reflect.DeepEqual(warm, crit) || !reflect.DeepEqual(warmSeeds, seeds) {
			t.Logf("seed %d: tracing after a scoring pass differs from a cold trace", seed)
			return false
		}
		for p, pat := range pats {
			if !determinate(pat) {
				continue
			}
			vals, err := sim.EvalScalar(c, pat, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[fault.StuckAt]bool{}
			for k, po := range fails[p] {
				brute, err := BruteForceCritical(c, pat, c.POs[po])
				if err != nil {
					t.Fatal(err)
				}
				for n, cr := range brute {
					if crit[p][k][n] != cr {
						t.Logf("seed %d pattern %d po %d net %s: cpt %v brute %v", seed, p, po, c.NameOf(netlist.NetID(n)), crit[p][k][n], cr)
						return false
					}
					if cr {
						want[fault.StuckAt{Net: netlist.NetID(n), Value1: vals[n] == logic.Zero}] = true
					}
				}
			}
			if len(seeds[p]) != len(want) {
				t.Logf("seed %d pattern %d: %d hypotheses, want %d", seed, p, len(seeds[p]), len(want))
				return false
			}
			for f := range seeds[p] {
				if !want[f] {
					t.Logf("seed %d pattern %d: hypothesis %s has the wrong net or polarity", seed, p, f.Name(c))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// determinate reports whether a pattern has no X input.
func determinate(p sim.Pattern) bool {
	for _, v := range p {
		if !v.IsKnown() {
			return false
		}
	}
	return true
}

// TestCPTSelfMaskingStem pins the two reconvergent cases approximate CPT
// gets wrong. In po = AND(BUF(s), BUF(s)) at s = 0, flipping s flips po
// although flipping either branch alone does not: s is critical, and the
// approximation, which only follows sensitive branches, misses it. In
// po = XOR(BUF(s), BUF(s)), po is 0 whatever s is, so s is never
// critical, yet each branch alone is sensitive and the approximation
// marks it. Exact CPT matches BruteForceCritical on both.
func TestCPTSelfMaskingStem(t *testing.T) {
	for _, tc := range []struct {
		typ    netlist.GateType
		vals   []logic.Value
		stemOK bool // whether s is critical
	}{
		{netlist.And, []logic.Value{logic.Zero}, true},
		{netlist.Xor, []logic.Value{logic.Zero, logic.One}, false},
	} {
		c := netlist.NewCircuit("mask")
		s := c.MustAddGate(netlist.Input, "s")
		a := c.MustAddGate(netlist.Buf, "a", s)
		b := c.MustAddGate(netlist.Buf, "b", s)
		po := c.MustAddGate(tc.typ, "po", a, b)
		if err := c.MarkPO(po); err != nil {
			t.Fatal(err)
		}
		if err := c.Finalize(); err != nil {
			t.Fatal(err)
		}
		for _, v := range tc.vals {
			p := sim.Pattern{v}
			exact, approx := traceOne(t, c, p, 0)
			want, err := BruteForceCritical(c, p, po)
			if err != nil {
				t.Fatal(err)
			}
			for id := range want {
				if exact[id] != want[id] {
					t.Fatalf("%v s=%v net %s: exact %v brute %v", tc.typ, v, c.NameOf(netlist.NetID(id)), exact[id], want[id])
				}
			}
			if exact[s] != tc.stemOK {
				t.Fatalf("%v s=%v: exact marks s critical=%v, want %v", tc.typ, v, exact[s], tc.stemOK)
			}
			if approx[s] == exact[s] {
				t.Fatalf("%v s=%v: approximate CPT agrees with exact on s (%v)", tc.typ, v, exact[s])
			}
		}
	}
}

// TestCPTCandidateProperty: for a failing output, the fault-free-complement
// stuck-at on every critical net must be observed at that output, and on
// every non-critical net must not.
func TestCPTCandidateProperty(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, _ := NewFaultSim(c, pats)
	for pIdx := 0; pIdx < len(pats); pIdx += 5 {
		for poIdx := range c.POs {
			crit, _ := traceOne(t, c, pats[pIdx], poIdx)
			for id := range c.Gates {
				n := netlist.NetID(id)
				v := fs.GoodValue(n, pIdx)
				if !v.IsKnown() {
					continue
				}
				syn := fs.SimulateStuckAt(fault.StuckAt{Net: n, Value1: v == logic.Zero})
				observed := syn.Fails[pIdx] != nil && syn.Fails[pIdx].Has(poIdx)
				if crit[n] != observed {
					t.Fatalf("pattern %d po %d net %s: critical=%v observed=%v",
						pIdx, poIdx, c.NameOf(n), crit[n], observed)
				}
			}
		}
	}
}

// TestCriticalForOutputs: tracing several failing outputs of every
// pattern of a word at once yields, per net, the union of the per-output
// masks handed to perPO.
func TestCriticalForOutputs(t *testing.T) {
	c := c17(t)
	pats := exhaustivePatterns(5)
	fs, _ := NewFaultSim(c, pats)
	fails := make([]bitset.Set, len(pats))
	for p := range fails {
		fails[p] = bitset.New(len(c.POs))
		fails[p].Add(0)
		fails[p].Add(1)
	}
	want := make([]uint64, c.NumGates())
	calls := 0
	union := fs.CriticalWord(context.Background(), 0, fails, false, 1, func(po int, crit []uint64) {
		calls++
		for n, m := range crit {
			want[n] |= m
		}
	})
	if calls != 2 {
		t.Fatalf("perPO called %d times, want 2", calls)
	}
	for n := range union {
		if union[n] != want[n] {
			t.Fatalf("union wrong at net %s: %x, want %x", c.NameOf(netlist.NetID(n)), union[n], want[n])
		}
	}
}

// TestApproxCPTIsSupersetOnFanoutFree: on fanout-free paths the approximate
// tracer agrees with the exact one; with reconvergence it may differ, but
// for a failing output the approximate union must at least contain the
// exact criticals that lie on fanout-free segments.
func TestApproxCPTAgainstExact(t *testing.T) {
	c, err := circuits.Generate(circuits.GenConfig{Seed: 31, NumPIs: 9, NumGates: 120, NumPOs: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	pats := randomPatterns(r, len(c.PIs), 6)
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	fails := make([]bitset.Set, len(pats))
	for p := range fails {
		fails[p] = bitset.New(len(c.POs))
		for i := range c.POs {
			fails[p].Add(i)
		}
	}
	exact := append([]uint64(nil), fs.CriticalWord(context.Background(), 0, fails, false, 1, nil)...)
	approx := fs.CriticalWord(context.Background(), 0, fails, true, 1, nil)
	for id := range c.Gates {
		if exact[id] != approx[id] && fs.refs[id] <= 1 {
			// Fanout-free nets propagate criticality identically under
			// both rules *unless* a stem above them diverges; only flag
			// when the chain on the driving side up to the next stem agrees.
			// Simplest sound check: a net whose entire fanout chain to
			// the PO is fanout-free must agree.
			if fanoutFreeToPO(c, netlist.NetID(id), fs.refs) {
				t.Fatalf("fanout-free net %s: exact %x approx %x",
					c.NameOf(netlist.NetID(id)), exact[id], approx[id])
			}
		}
	}
}

// fanoutFreeToPO reports whether the unique reader chain from n reaches a
// PO without crossing any fanout stem.
func fanoutFreeToPO(c *netlist.Circuit, n netlist.NetID, refs []int32) bool {
	for {
		if c.IsPO(n) {
			return true
		}
		if refs[n] != 1 || len(c.Gates[n].Fanout) != 1 {
			return false
		}
		n = c.Gates[n].Fanout[0]
	}
}

// traceFails runs the exact tracer, on the given number of workers, over
// every pattern's failing outputs, X patterns included: crit[p][k] is the
// critical set of PO fails[p][k], and seeds[p] the stuck-at-complement
// hypotheses of their union. With prefill, every stuck-at fault of c is
// scored on the simulator first.
func traceFails(t *testing.T, c *netlist.Circuit, pats []sim.Pattern, fails [][]int, workers int, prefill bool) (crit [][][]bool, seeds []map[fault.StuckAt]bool) {
	t.Helper()
	fs, err := NewFaultSim(c, pats)
	if err != nil {
		t.Fatal(err)
	}
	if prefill {
		fs.SimulateStuckAtBatch(fault.List(c), workers)
	}
	sets := make([]bitset.Set, len(pats))
	for p := range pats {
		if len(fails[p]) > 0 {
			sets[p] = bitset.New(len(c.POs))
			for _, po := range fails[p] {
				sets[p].Add(po)
			}
		}
	}
	crit = make([][][]bool, len(pats))
	seeds = make([]map[fault.StuckAt]bool, len(pats))
	for w := 0; w < fs.NumWords(); w++ {
		perPO := map[int][]uint64{}
		union := fs.CriticalWord(context.Background(), w, sets, false, workers, func(po int, m []uint64) {
			perPO[po] = append([]uint64(nil), m...)
		})
		for p := w * logic.W; p < min((w+1)*logic.W, len(pats)); p++ {
			for _, po := range fails[p] {
				crit[p] = append(crit[p], maskSet(perPO[po], p))
			}
			seeds[p] = map[fault.StuckAt]bool{}
			for n, cr := range maskSet(union, p) {
				if v := fs.GoodValue(netlist.NetID(n), p); cr && v.IsKnown() {
					seeds[p][fault.StuckAt{Net: netlist.NetID(n), Value1: v == logic.Zero}] = true
				}
			}
		}
	}
	return crit, seeds
}

// maskSet reads pattern p's slot out of per-net pattern masks.
func maskSet(masks []uint64, p int) []bool {
	set := make([]bool, len(masks))
	for n, m := range masks {
		set[n] = m>>uint(p%logic.W)&1 == 1
	}
	return set
}

// traceOne returns the exact and the approximate critical sets of PO
// index po under the single pattern p.
func traceOne(t *testing.T, c *netlist.Circuit, p sim.Pattern, po int) (exact, approx []bool) {
	t.Helper()
	fs, err := NewFaultSim(c, []sim.Pattern{p})
	if err != nil {
		t.Fatal(err)
	}
	fails := []bitset.Set{bitset.New(len(c.POs))}
	fails[0].Add(po)
	exact = maskSet(fs.CriticalWord(context.Background(), 0, fails, false, 1, nil), 0)
	approx = maskSet(fs.CriticalWord(context.Background(), 0, fails, true, 1, nil), 0)
	return exact, approx
}
