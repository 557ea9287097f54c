// Package transition adds gate-level delay-defect support: transition
// (slow-to-rise / slow-to-fall) fault modelling on two-pattern tests,
// transition-fault ATPG and simulation, slow-net defect injection, and an
// effect-cause diagnosis engine for delay defects.
//
// Model. A two-pattern test applies a launch pattern V1 followed by a
// capture pattern V2 (full-scan launch-off-shift/capture abstractions
// collapse to ordered pattern pairs at this level). A slow-to-rise fault on
// net n is detected by (V1, V2) when n carries 0 under V1, should carry 1
// under V2, and the stuck-at-0 error at n under V2 reaches an output — the
// standard reduction of transition faults to conditioned stuck-at faults.
// A net with a gross delay defect behaves, during capture, as if stuck at
// its launch value whenever a transition was required; that is exactly how
// the injector builds defective devices, so the model and the "physical"
// behaviour agree by construction and the interesting question (which the
// tests verify) is diagnostic localization.
package transition

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"multidiag/internal/bitset"
	"multidiag/internal/core"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Fault is a transition fault: slow-to-rise (Rise=true: the 0→1 transition
// is late) or slow-to-fall on net Net.
type Fault struct {
	Net  netlist.NetID
	Rise bool
}

// Name renders e.g. "G11 STR".
func (f Fault) Name(c *netlist.Circuit) string {
	k := "STF"
	if f.Rise {
		k = "STR"
	}
	return c.NameOf(f.Net) + " " + k
}

// launchValue is the value the net holds before the (late) transition.
func (f Fault) launchValue() logic.Value {
	if f.Rise {
		return logic.Zero
	}
	return logic.One
}

// asStuck is the capture-cycle stuck-at equivalent.
func (f Fault) asStuck() fault.StuckAt {
	return fault.StuckAt{Net: f.Net, Value1: !f.Rise}
}

// fromStuck inverts asStuck.
func fromStuck(s fault.StuckAt) Fault { return Fault{Net: s.Net, Rise: !s.Value1} }

// List enumerates the full transition-fault universe (two per net).
func List(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumGates())
	for i := range c.Gates {
		out = append(out,
			Fault{Net: netlist.NetID(i), Rise: true},
			Fault{Net: netlist.NetID(i), Rise: false})
	}
	return out
}

// Pair is one two-pattern test.
type Pair struct {
	Launch, Capture sim.Pattern
}

// Detects reports whether the pair detects f, and at which capture-side PO
// indices. The launch pattern must set the net to the fault's initial
// value; the capture pattern must both request the transition and
// propagate the late value.
func Detects(c *netlist.Circuit, pr Pair, f Fault) (bitset.Set, error) {
	v1, err := sim.EvalScalar(c, pr.Launch, nil)
	if err != nil {
		return nil, err
	}
	if v1[f.Net] != f.launchValue() {
		return nil, nil // transition not launched
	}
	good, err := sim.EvalScalar(c, pr.Capture, nil)
	if err != nil {
		return nil, err
	}
	if good[f.Net] != f.launchValue().Not() {
		return nil, nil // no transition requested at the site
	}
	bad, err := sim.EvalScalar(c, pr.Capture, map[netlist.NetID]logic.Value{f.Net: f.launchValue()})
	if err != nil {
		return nil, err
	}
	var fails bitset.Set
	for i, po := range c.POs {
		if good[po].IsKnown() && bad[po].IsKnown() && good[po] != bad[po] {
			if fails == nil {
				fails = bitset.New(len(c.POs))
			}
			fails.Add(i)
		}
	}
	return fails, nil
}

// GenerateConfig tunes transition ATPG.
type GenerateConfig struct {
	Seed int64
	// LaunchRetries bounds the random search for a launch pattern per
	// fault (default 64).
	LaunchRetries int
	// StuckConfig parameterizes the capture-side stuck-at generation.
	RandomBudget, PodemBacktrackLimit int
}

func (cfg *GenerateConfig) fill() {
	if cfg.LaunchRetries <= 0 {
		cfg.LaunchRetries = 64
	}
	if cfg.PodemBacktrackLimit <= 0 {
		cfg.PodemBacktrackLimit = 10000
	}
}

// GenerateResult is a transition test set with its coverage bookkeeping.
type GenerateResult struct {
	Pairs    []Pair
	Detected []bool // per universe fault
	Universe []Fault
}

// Coverage returns detected/universe.
func (r *GenerateResult) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(r.Detected))
}

// Generate produces a two-pattern test set for the transition universe:
// random pairs with fault dropping, then targeted generation (capture from
// stuck-at PODEM via the atpg package's exported surface is avoided here to
// keep the dependency one-way; the targeted phase instead uses constrained
// random capture search seeded by the site value requirement, which the
// tests show reaches high coverage on the experiment workloads).
func Generate(c *netlist.Circuit, cfg GenerateConfig) (*GenerateResult, error) {
	cfg.fill()
	r := rand.New(rand.NewSource(cfg.Seed))
	universe := List(c)
	res := &GenerateResult{Universe: universe, Detected: make([]bool, len(universe))}
	remaining := make(map[int]bool, len(universe))
	for i := range universe {
		remaining[i] = true
	}
	randPat := func() sim.Pattern {
		p := make(sim.Pattern, len(c.PIs))
		for i := range p {
			p[i] = logic.FromBool(r.Intn(2) == 1)
		}
		return p
	}
	tryPair := func(pr Pair) error {
		useful := false
		for fi := range remaining {
			fails, err := Detects(c, pr, universe[fi])
			if err != nil {
				return err
			}
			if fails != nil && !fails.Empty() {
				res.Detected[fi] = true
				delete(remaining, fi)
				useful = true
			}
		}
		if useful {
			res.Pairs = append(res.Pairs, pr)
		}
		return nil
	}
	// Phase 1: random pairs.
	budget := cfg.RandomBudget
	if budget <= 0 {
		budget = 128
	}
	for try := 0; try < budget && len(remaining) > 0; try++ {
		if err := tryPair(Pair{Launch: randPat(), Capture: randPat()}); err != nil {
			return nil, err
		}
	}
	// Phase 2: per-fault targeted search — constrained random: find V1
	// setting the site to the launch value, V2 requesting the transition
	// and propagating.
	fis := make([]int, 0, len(remaining))
	for fi := range remaining {
		fis = append(fis, fi)
	}
	sort.Ints(fis)
	for _, fi := range fis {
		if !remaining[fi] {
			continue
		}
		f := universe[fi]
		var launch sim.Pattern
		for try := 0; try < cfg.LaunchRetries; try++ {
			p := randPat()
			vals, err := sim.EvalScalar(c, p, nil)
			if err != nil {
				return nil, err
			}
			if vals[f.Net] == f.launchValue() {
				launch = p
				break
			}
		}
		if launch == nil {
			continue
		}
		for try := 0; try < cfg.LaunchRetries; try++ {
			capturePat := randPat()
			pr := Pair{Launch: launch, Capture: capturePat}
			fails, err := Detects(c, pr, f)
			if err != nil {
				return nil, err
			}
			if fails != nil && !fails.Empty() {
				if err := tryPair(pr); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	return res, nil
}

// SlowNet is a gross-delay defect: during capture, net Net holds its launch
// value whenever the pair requested a transition at it.
type SlowNet struct {
	Net netlist.NetID
}

// ApplyTest simulates the two-pattern test application to a device with
// the given slow nets and returns the capture-side datalog (one entry per
// pair index).
func ApplyTest(c *netlist.Circuit, slow []SlowNet, pairs []Pair) (*tester.Datalog, error) {
	d := &tester.Datalog{
		CircuitName: c.Name,
		NumPatterns: len(pairs),
		NumPOs:      len(c.POs),
		Fails:       map[int]bitset.Set{},
	}
	for pi, pr := range pairs {
		v1, err := sim.EvalScalar(c, pr.Launch, nil)
		if err != nil {
			return nil, err
		}
		good, err := sim.EvalScalar(c, pr.Capture, nil)
		if err != nil {
			return nil, err
		}
		// Devices hold every slow net that was asked to transition.
		force := map[netlist.NetID]logic.Value{}
		for _, s := range slow {
			if v1[s.Net].IsKnown() && good[s.Net].IsKnown() && v1[s.Net] != good[s.Net] {
				force[s.Net] = v1[s.Net]
			}
		}
		if len(force) == 0 {
			continue
		}
		bad, err := sim.EvalScalar(c, pr.Capture, force)
		if err != nil {
			return nil, err
		}
		for i, po := range c.POs {
			if good[po].IsKnown() && bad[po].IsKnown() && good[po] != bad[po] {
				if d.Fails[pi] == nil {
					d.Fails[pi] = bitset.New(len(c.POs))
				}
				d.Fails[pi].Add(i)
			}
		}
	}
	return d, nil
}

// Candidate is one delay suspect.
type Candidate struct {
	Fault Fault
	// Covered / TFSF / TPSF mirror the static engine's evidence counts
	// over (pair, PO) bits.
	Covered bitset.Set
	TFSF    int
	TPSF    int
	// Equivalent lists indistinguishable delay faults.
	Equivalent []Fault
}

// Result is the delay diagnosis outcome.
type Result struct {
	Multiplet   []*Candidate
	Ranked      []*Candidate
	Evidence    int
	Unexplained int
	Elapsed     time.Duration
}

// MultipletNets adapts to the metrics package.
func (r *Result) MultipletNets() [][]netlist.NetID {
	out := make([][]netlist.NetID, len(r.Multiplet))
	for i, cd := range r.Multiplet {
		nets := []netlist.NetID{cd.Fault.Net}
		for _, e := range cd.Equivalent {
			nets = append(nets, e.Net)
		}
		out[i] = nets
	}
	return out
}

// Diagnose locates slow nets from a two-pattern datalog. Extraction is
// the delay-specific part: per-failing-output CPT on the capture pattern,
// keeping only the critical nets that transition between launch and
// capture, and every candidate's syndrome is its full-pair detection
// behaviour (Detects). Scoring, equivalence classes, the greedy cover and
// the ranking are core.Select's, run on the capture-equivalent stuck-at
// faults.
func Diagnose(c *netlist.Circuit, pairs []Pair, log *tester.Datalog, lambda float64, maxMultiplet int) (res *Result, err error) {
	sp := obs.Global().Span("transition.diagnose")
	defer func() {
		if d := sp.End(); res != nil {
			res.Elapsed = d
		}
	}()
	if log.NumPatterns != len(pairs) {
		return nil, fmt.Errorf("transition: datalog has %d pairs, test set has %d", log.NumPatterns, len(pairs))
	}
	// Extraction: transitioning critical nets on failing pairs.
	cpt := fsim.NewCPT(c)
	seen := map[fault.StuckAt]bool{}
	var seeds []fault.StuckAt
	for _, p := range log.FailingPatterns() {
		pr := pairs[p]
		v1, err := sim.EvalScalar(c, pr.Launch, nil)
		if err != nil {
			return nil, err
		}
		pos := make([]netlist.NetID, 0, log.Fails[p].Count())
		for _, poIdx := range log.Fails[p].Members() {
			pos = append(pos, c.POs[poIdx])
		}
		union, _, v2, err := cpt.CriticalForOutputs(pr.Capture, pos)
		if err != nil {
			return nil, err
		}
		for id, cr := range union {
			if !cr {
				continue
			}
			n := netlist.NetID(id)
			if !v1[n].IsKnown() || !v2[n].IsKnown() || v1[n] == v2[n] {
				continue // no transition at the site: a delay cannot explain it
			}
			f := Fault{Net: n, Rise: v2[n] == logic.One}.asStuck()
			if !seen[f] {
				seen[f] = true
				seeds = append(seeds, f)
			}
		}
	}
	// (net, stuck-at-0 first) is (net, slow-to-rise first).
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].Net != seeds[j].Net {
			return seeds[i].Net < seeds[j].Net
		}
		return !seeds[i].Value1 && seeds[j].Value1
	})
	syns := make([]*fsim.Syndrome, len(seeds))
	for i, f := range seeds {
		syns[i] = fsim.NewSyndrome(len(pairs), len(c.POs))
		for p := range pairs {
			if syns[i].Fails[p], err = Detects(c, pairs[p], fromStuck(f)); err != nil {
				return nil, err
			}
		}
	}
	cr := core.Select(c, seeds, syns, log, core.Config{Lambda: lambda, MaxMultipletSize: maxMultiplet})
	res = &Result{Evidence: len(cr.Evidence), Unexplained: cr.UnexplainedBits, Ranked: make([]*Candidate, len(cr.Ranked))}
	for i, cd := range cr.Ranked {
		d := &Candidate{Fault: fromStuck(cd.Fault), Covered: cd.Covered, TFSF: cd.TFSF, TPSF: cd.TPSF}
		for _, e := range cd.Equivalent {
			d.Equivalent = append(d.Equivalent, fromStuck(e))
		}
		res.Ranked[i] = d
	}
	res.Multiplet = res.Ranked[:len(cr.Multiplet)] // the ranking leads with the multiplet
	return res, nil
}
