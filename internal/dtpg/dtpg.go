// Package dtpg generates *diagnostic* test patterns: patterns that
// distinguish between fault candidates the production test set cannot tell
// apart. Diagnosis quality is bounded by the test set's resolution — two
// candidates with identical syndromes form one equivalence class — and the
// classical remedy is to generate a pattern on which their predicted
// responses differ, re-test the device, and re-diagnose with the extended
// evidence. This package provides:
//
//   - FindDistinguishing: one pattern separating two stuck-at hypotheses;
//   - DistinguishSet: patterns splitting every distinguishable pair in a
//     candidate list;
//   - ImproveResolution: the closed diagnosis loop (diagnose → distinguish
//     → re-test → re-diagnose) against a tester callback.
//
// Distinguishing-pattern search runs in two phases, mirroring the ATPG
// flow: a cheap random phase (evaluate random patterns on both faulty
// machines with the event-driven simulator), then a structural phase that
// targets sites where exactly one of the two faults is excited.
package dtpg

import (
	"fmt"
	"math/rand"

	"multidiag/internal/bitset"
	"multidiag/internal/core"
	"multidiag/internal/fault"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Config tunes the distinguishing-pattern search.
type Config struct {
	Seed int64
	// RandomBudget is the number of random patterns tried per pair
	// (default 256).
	RandomBudget int
	// MaxRounds bounds the ImproveResolution loop (default 3).
	MaxRounds int
	// MaxPairsPerRound bounds how many candidate pairs are split per round
	// (default 16).
	MaxPairsPerRound int
}

func (cfg *Config) fill() {
	if cfg.RandomBudget <= 0 {
		cfg.RandomBudget = 256
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.MaxPairsPerRound <= 0 {
		cfg.MaxPairsPerRound = 16
	}
}

// responsesDiffer simulates both faulty machines under p and reports
// whether any PO differs determinately.
func responsesDiffer(c *netlist.Circuit, p sim.Pattern, fa, fb fault.StuckAt) (bool, error) {
	va, err := sim.EvalScalar(c, p, forceOf(fa))
	if err != nil {
		return false, err
	}
	vb, err := sim.EvalScalar(c, p, forceOf(fb))
	if err != nil {
		return false, err
	}
	for _, po := range c.POs {
		if va[po].IsKnown() && vb[po].IsKnown() && va[po] != vb[po] {
			return true, nil
		}
	}
	return false, nil
}

func forceOf(f fault.StuckAt) map[netlist.NetID]logic.Value {
	v := logic.Zero
	if f.Value1 {
		v = logic.One
	}
	return map[netlist.NetID]logic.Value{f.Net: v}
}

// FindDistinguishing searches for a pattern on which fa and fb produce
// different primary-output responses. ok is false when the budget is
// exhausted (the faults may be functionally equivalent).
func FindDistinguishing(c *netlist.Circuit, fa, fb fault.StuckAt, cfg Config) (sim.Pattern, bool, error) {
	cfg.fill()
	r := rand.New(rand.NewSource(cfg.Seed))
	// Phase 1: random search.
	p := make(sim.Pattern, len(c.PIs))
	for try := 0; try < cfg.RandomBudget; try++ {
		for i := range p {
			p[i] = logic.FromBool(r.Intn(2) == 1)
		}
		diff, err := responsesDiffer(c, p, fa, fb)
		if err != nil {
			return nil, false, err
		}
		if diff {
			return p.Clone(), true, nil
		}
	}
	// Phase 2: structural targeting. A pattern distinguishing fa from fb
	// exists iff some pattern detects exactly one of them (responses can
	// also differ when both are detected at different outputs, but the
	// exactly-one case is the common one and PODEM-expressible): target
	// "detect fa while fb's site holds its stuck value" and vice versa —
	// when fb's site already carries fb's stuck value, machine-b equals the
	// fault-free machine, so detecting fa guarantees a difference.
	for _, ord := range [2][2]fault.StuckAt{{fa, fb}, {fb, fa}} {
		target, hold := ord[0], ord[1]
		pats := targetWithHold(c, target, hold, r, cfg.RandomBudget/4)
		for _, p := range pats {
			diff, err := responsesDiffer(c, p, fa, fb)
			if err != nil {
				return nil, false, err
			}
			if diff {
				return p, true, nil
			}
		}
	}
	return nil, false, nil
}

// targetWithHold produces candidate patterns detecting `target` while the
// `hold` site rests at its stuck value, by constrained random sampling:
// random patterns are filtered for hold-site value and target excitation,
// then checked for detection of target.
func targetWithHold(c *netlist.Circuit, target, hold fault.StuckAt, r *rand.Rand, budget int) []sim.Pattern {
	var out []sim.Pattern
	holdVal := logic.FromBool(hold.Value1)
	targetBad := logic.FromBool(target.Value1)
	p := make(sim.Pattern, len(c.PIs))
	for try := 0; try < budget && len(out) < 4; try++ {
		for i := range p {
			p[i] = logic.FromBool(r.Intn(2) == 1)
		}
		good, err := sim.EvalScalar(c, p, nil)
		if err != nil {
			return out
		}
		if good[hold.Net] != holdVal {
			continue // hold site would itself be excited
		}
		if good[target.Net] == targetBad {
			continue // target not excited
		}
		// Detection check for target alone.
		bad, err := sim.EvalScalar(c, p, forceOf(target))
		if err != nil {
			return out
		}
		for _, po := range c.POs {
			if good[po].IsKnown() && bad[po].IsKnown() && good[po] != bad[po] {
				out = append(out, p.Clone())
				break
			}
		}
	}
	return out
}

// Pair identifies two candidate hypotheses to split.
type Pair struct {
	A, B fault.StuckAt
}

// DistinguishSet finds patterns splitting as many of the given pairs as
// possible; returns the patterns and the pairs that remained inseparable
// within budget.
func DistinguishSet(c *netlist.Circuit, pairs []Pair, cfg Config) ([]sim.Pattern, []Pair, error) {
	cfg.fill()
	var (
		pats  []sim.Pattern
		stuck []Pair
	)
	for i, pr := range pairs {
		// A pattern found for an earlier pair may already split this one.
		already := false
		for _, p := range pats {
			diff, err := responsesDiffer(c, p, pr.A, pr.B)
			if err != nil {
				return nil, nil, err
			}
			if diff {
				already = true
				break
			}
		}
		if already {
			continue
		}
		sub := cfg
		sub.Seed = cfg.Seed + int64(i)*7919
		p, ok, err := FindDistinguishing(c, pr.A, pr.B, sub)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			pats = append(pats, p)
		} else {
			stuck = append(stuck, pr)
		}
	}
	return pats, stuck, nil
}

// TesterFunc re-tests the physical device with additional patterns and
// returns their datalog (pattern indices local to the given set). The
// experiment harness wraps the injected device model; a production
// deployment would wrap real ATE retest.
type TesterFunc func(pats []sim.Pattern) (*tester.Datalog, error)

// LoopResult reports one ImproveResolution run.
type LoopResult struct {
	Result        *core.Result
	Patterns      []sim.Pattern // full pattern set after all rounds
	Datalog       *tester.Datalog
	Rounds        int
	PatternsAdded int
	// ResolutionBefore/After count multiplet candidate *sites* (equivalence
	// class members included) before and after the loop.
	ResolutionBefore, ResolutionAfter int
}

// ImproveResolution closes the diagnosis loop: it diagnoses, derives the
// ambiguous pairs from the result (equivalence-class members and same-cover
// multiplet alternatives), generates distinguishing patterns, re-tests the
// device through apply, merges the new evidence and re-diagnoses — until
// the resolution stops improving or cfg.MaxRounds is reached.
//
// Both the datalog and every re-test must be complete: the new patterns go
// after the original ones, and a truncated datalog leaves every pattern
// from its cut to its end unobserved, so it cannot hold fully observed
// patterns behind the cut. A truncated datalog is an error.
func ImproveResolution(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog, apply TesterFunc, dcfg core.Config, cfg Config) (*LoopResult, error) {
	if log.Truncated {
		return nil, fmt.Errorf("dtpg: datalog truncated at pattern %d; the loop needs a complete datalog", log.TruncatedAfter)
	}
	cfg.fill()
	curPats := append([]sim.Pattern(nil), pats...)
	curLog := cloneDatalog(log)
	res, err := core.Diagnose(c, curPats, curLog, dcfg)
	if err != nil {
		return nil, err
	}
	lr := &LoopResult{Result: res, ResolutionBefore: resolutionSites(res)}
	for round := 0; round < cfg.MaxRounds; round++ {
		pairs := ambiguousPairs(res, cfg.MaxPairsPerRound)
		if len(pairs) == 0 {
			break
		}
		sub := cfg
		sub.Seed = cfg.Seed + int64(round)*104729
		newPats, _, err := DistinguishSet(c, pairs, sub)
		if err != nil {
			return nil, err
		}
		if len(newPats) == 0 {
			break
		}
		extra, err := apply(newPats)
		if err != nil {
			return nil, err
		}
		if extra.NumPatterns != len(newPats) || extra.NumPOs != curLog.NumPOs {
			return nil, fmt.Errorf("dtpg: tester returned %d-pattern/%d-PO datalog, want %d/%d",
				extra.NumPatterns, extra.NumPOs, len(newPats), curLog.NumPOs)
		}
		if extra.Truncated {
			return nil, fmt.Errorf("dtpg: tester returned a datalog truncated at pattern %d", extra.TruncatedAfter)
		}
		base := len(curPats)
		curPats = append(curPats, newPats...)
		for p, f := range extra.Fails {
			curLog.Fails[base+p] = f.Clone()
		}
		curLog.NumPatterns = len(curPats)
		lr.PatternsAdded += len(newPats)
		lr.Rounds++
		res, err = core.Diagnose(c, curPats, curLog, dcfg)
		if err != nil {
			return nil, err
		}
	}
	lr.Result = res
	lr.Patterns = curPats
	lr.Datalog = curLog
	lr.ResolutionAfter = resolutionSites(res)
	return lr, nil
}

// ambiguousPairs extracts up to max pairs worth splitting: each multiplet
// member against its equivalence-class members.
func ambiguousPairs(res *core.Result, max int) []Pair {
	var out []Pair
	for _, cd := range res.Multiplet {
		for _, e := range cd.Equivalent {
			if len(out) >= max {
				return out
			}
			out = append(out, Pair{A: cd.Fault, B: e})
		}
	}
	return out
}

// resolutionSites counts distinct candidate sites in the multiplet
// including equivalents.
func resolutionSites(res *core.Result) int {
	n := 0
	for _, cd := range res.Multiplet {
		n += 1 + len(cd.Equivalent)
	}
	return n
}

func cloneDatalog(d *tester.Datalog) *tester.Datalog {
	out := &tester.Datalog{
		CircuitName:    d.CircuitName,
		NumPatterns:    d.NumPatterns,
		NumPOs:         d.NumPOs,
		Fails:          make(map[int]bitset.Set, len(d.Fails)),
		Truncated:      d.Truncated,
		TruncatedAfter: d.TruncatedAfter,
	}
	for p, f := range d.Fails {
		out.Fails[p] = f.Clone()
	}
	return out
}
