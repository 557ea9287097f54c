// Package baseline implements the comparison diagnosis engines, each
// embodying exactly one of the failing-pattern assumptions the core engine
// removes:
//
//   - SLAT assumes every usable failing pattern is explainable by a single
//     stuck-at fault at a single location (per-pattern exact match), and
//     builds multiplets only from such patterns — failing patterns caused
//     jointly by several defects are discarded;
//
//   - Intersection is the classic single-defect effect-cause flow: suspect
//     sets from every failing pattern are intersected, so a second defect
//     that fails a disjoint pattern set usually empties the result;
//
//   - Dictionary is the cause-effect approach: a precomputed full-response
//     single-stuck-at dictionary is searched for the observed syndrome —
//     exact for single faults, structurally unable to represent multi-defect
//     syndromes (nearest-match fallback included, as deployed dictionaries
//     do).
//
// All three consume the same inputs as core.Diagnose and report the same
// candidate shape, so the experiment harness scores them identically. SLAT
// and Intersection take their suspects from core's own extraction
// (core.Seeds), so a comparison isolates the assumption, not the front end.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"multidiag/internal/bitset"
	"multidiag/internal/core"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Candidate is a baseline-reported suspect.
type Candidate struct {
	Fault fault.StuckAt
	// Equivalent lists further faults indistinguishable from Fault under
	// the applied test set (same explained-pattern set); SLAT fills this,
	// mirroring how deployed tools report whole equivalence classes.
	Equivalent []fault.StuckAt
	// Explained counts the failing patterns (SLAT) or failing bits
	// (dictionary distance complement) supporting the candidate.
	Explained int
}

// Result is a baseline diagnosis outcome.
type Result struct {
	// Multiplet is the selected candidate set (may be empty).
	Multiplet []Candidate
	// SLATPatterns / NonSLATPatterns partition the failing patterns for the
	// SLAT engine (zero for the others).
	SLATPatterns, NonSLATPatterns int
	// Elapsed is the wall-clock diagnosis time.
	Elapsed time.Duration
}

// Nets flattens the multiplet (equivalence classes included) for metric
// scoring.
func (r *Result) Nets() [][]netlist.NetID {
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

// SLAT runs Single-Location-At-a-Time diagnosis.
//
// A failing pattern is a SLAT pattern when at least one single stuck-at
// fault explains it exactly: the fault's predicted failing outputs on that
// pattern equal the observed failing outputs. Multiplets are built by
// greedy cover over SLAT patterns only; non-SLAT patterns are discarded
// (the assumption under evaluation).
func SLAT(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog, maxMultiplet int) (*Result, error) {
	res := &Result{}
	defer obs.Global().Span("baseline.slat").EndInto(&res.Elapsed)
	if maxMultiplet <= 0 {
		maxMultiplet = 10
	}
	if err := validate(c, pats, log); err != nil {
		return nil, err
	}
	failing := log.FailingPatterns()
	if len(failing) == 0 {
		return res, nil
	}
	seeds, err := core.Seeds(c, pats, log)
	if err != nil {
		return nil, err
	}
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		return nil, err
	}
	// explains[f] = set of failing-pattern positions f explains exactly.
	patIndex := make(map[int]int, len(failing))
	for i, p := range failing {
		patIndex[p] = i
	}
	type scored struct {
		f        fault.StuckAt
		explains bitset.Set
	}
	var cands []scored
	slatPattern := bitset.New(len(failing))
	for _, f := range seeds {
		syn := fs.SimulateStuckAt(f)
		ex := bitset.New(len(failing))
		for _, p := range failing {
			pred := syn.Fails[p]
			if pred != nil && pred.Equal(log.Fails[p]) {
				ex.Add(patIndex[p])
				slatPattern.Add(patIndex[p])
			}
		}
		if !ex.Empty() {
			cands = append(cands, scored{f: f, explains: ex})
		}
	}
	res.SLATPatterns = slatPattern.Count()
	res.NonSLATPatterns = len(failing) - res.SLATPatterns

	// Greedy cover of SLAT patterns.
	remaining := slatPattern.Clone()
	for len(res.Multiplet) < maxMultiplet && !remaining.Empty() {
		bestIdx, bestCov := -1, 0
		for i, cd := range cands {
			cov := cd.explains.IntersectCount(remaining)
			if cov > bestCov || (cov == bestCov && cov > 0 && bestIdx >= 0 && cd.f.Net < cands[bestIdx].f.Net) {
				bestIdx, bestCov = i, cov
			}
		}
		if bestIdx < 0 || bestCov == 0 {
			break
		}
		sel := Candidate{
			Fault:     cands[bestIdx].f,
			Explained: cands[bestIdx].explains.Count(),
		}
		// Attach the equivalence class: every candidate explaining exactly
		// the same pattern set is indistinguishable by this test set.
		for i, cd := range cands {
			if i != bestIdx && cd.explains.Equal(cands[bestIdx].explains) {
				sel.Equivalent = append(sel.Equivalent, cd.f)
			}
		}
		res.Multiplet = append(res.Multiplet, sel)
		remaining.SubtractWith(cands[bestIdx].explains)
	}
	return res, nil
}

// Intersection runs the classic single-defect effect-cause flow: per
// failing pattern, the suspect set is the union (over that pattern's
// failing outputs) of critical (net, stuck-value) candidates; the global
// suspect set is the intersection across failing patterns; passing patterns
// then vindicate suspects whose fault would have been observed.
func Intersection(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) (*Result, error) {
	res := &Result{}
	defer obs.Global().Span("baseline.intersect").EndInto(&res.Elapsed)
	if err := validate(c, pats, log); err != nil {
		return nil, err
	}
	failing := log.FailingPatterns()
	if len(failing) == 0 {
		return res, nil
	}
	var global map[fault.StuckAt]bool
	for _, p := range failing {
		// One failing pattern's suspects: core's extraction over a datalog
		// holding that pattern alone. Patterns with X inputs yield none
		// (a determinate failing pattern always yields its failing outputs)
		// and are skipped rather than emptying the intersection.
		one := &tester.Datalog{NumPatterns: log.NumPatterns, NumPOs: log.NumPOs, Fails: map[int]bitset.Set{p: log.Fails[p]}}
		seeds, err := core.Seeds(c, pats, one)
		if err != nil {
			return nil, err
		}
		if len(seeds) == 0 {
			continue
		}
		local := make(map[fault.StuckAt]bool, len(seeds))
		for _, f := range seeds {
			local[f] = true
		}
		if global == nil {
			global = local
			continue
		}
		for f := range global {
			if !local[f] {
				delete(global, f)
			}
		}
	}
	if len(global) == 0 {
		return res, nil
	}
	// Vindication: a surviving suspect must not be observed on any passing
	// pattern.
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		return nil, err
	}
	isFailing := make(map[int]bool, len(failing))
	for _, p := range failing {
		isFailing[p] = true
	}
	var out []fault.StuckAt
	for f := range global {
		syn := fs.SimulateStuckAt(f)
		ok := true
		for _, p := range syn.FailingPatterns() {
			if !isFailing[p] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Net != out[j].Net {
			return out[i].Net < out[j].Net
		}
		return !out[i].Value1 && out[j].Value1
	})
	for _, f := range out {
		res.Multiplet = append(res.Multiplet, Candidate{Fault: f, Explained: len(failing)})
	}
	return res, nil
}

// Dictionary runs cause-effect diagnosis against a precomputed
// single-stuck-at full-response dictionary. On an exact syndrome match the
// matching faults are returned; otherwise the nearest dictionary entries by
// failing-bit Hamming distance are returned (top-k), which is how deployed
// dictionary flows degrade on multi-defect devices.
type Dictionary struct {
	c    *netlist.Circuit
	dict *fsim.Dictionary
	pats []sim.Pattern
}

// BuildDictionary precomputes the dictionary for the collapsed stuck-at
// universe (the expensive step the effect-cause approach avoids).
func BuildDictionary(c *netlist.Circuit, pats []sim.Pattern) (*Dictionary, error) {
	sp := obs.Global().Span("baseline.build_dict")
	d, err := fsim.BuildDictionary(c, pats, fault.Collapse(c))
	sp.End()
	if err != nil {
		return nil, err
	}
	return &Dictionary{c: c, dict: d, pats: pats}, nil
}

// Diagnose looks the observed syndrome up in the dictionary.
func (d *Dictionary) Diagnose(log *tester.Datalog, topK int) (*Result, error) {
	res := &Result{}
	defer obs.Global().Span("baseline.dict").EndInto(&res.Elapsed)
	if topK <= 0 {
		topK = 5
	}
	if err := validate(d.c, d.pats, log); err != nil {
		return nil, err
	}
	observed := log.Syndrome()
	if len(log.Fails) == 0 {
		return res, nil
	}
	if hits := d.dict.Lookup(observed); len(hits) > 0 {
		for _, h := range hits {
			res.Multiplet = append(res.Multiplet, Candidate{
				Fault:     d.dict.Faults[h],
				Explained: observed.NumFailBits(),
			})
		}
		return res, nil
	}
	// Nearest match by symmetric difference over failing bits.
	type scored struct {
		idx  int
		dist int
	}
	var all []scored
	for i, syn := range d.dict.Syndromes {
		if !syn.Detected() {
			continue
		}
		all = append(all, scored{idx: i, dist: syndromeDistance(observed, syn)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].idx < all[j].idx
	})
	for i := 0; i < topK && i < len(all); i++ {
		res.Multiplet = append(res.Multiplet, Candidate{
			Fault:     d.dict.Faults[all[i].idx],
			Explained: observed.NumFailBits() - all[i].dist,
		})
	}
	return res, nil
}

// DiagnosePassFail looks the syndrome up using only the per-pattern
// pass/fail bit — the compressed "pass/fail dictionary" industrial flows
// keep when full-response storage is too large. Resolution is strictly
// worse than the full-response dictionary (faults differing only in which
// outputs fail become indistinguishable), which the comparison test
// quantifies.
func (d *Dictionary) DiagnosePassFail(log *tester.Datalog, topK int) (*Result, error) {
	res := &Result{}
	defer obs.Global().Span("baseline.dict_passfail").EndInto(&res.Elapsed)
	if topK <= 0 {
		topK = 5
	}
	if err := validate(d.c, d.pats, log); err != nil {
		return nil, err
	}
	if len(log.Fails) == 0 {
		return res, nil
	}
	obsSet := bitset.New(log.NumPatterns)
	for _, p := range log.FailingPatterns() {
		obsSet.Add(p)
	}
	sigOf := func(s *fsim.Syndrome) bitset.Set {
		sig := bitset.New(s.NumPatterns)
		for _, p := range s.FailingPatterns() {
			sig.Add(p)
		}
		return sig
	}
	// Exact matches first, then nearest by pattern-set symmetric difference.
	type scored struct {
		idx  int
		dist int
	}
	var exact, near []scored
	for i, syn := range d.dict.Syndromes {
		if !syn.Detected() {
			continue
		}
		sig := sigOf(syn)
		dist := sig.SubtractCount(obsSet) + obsSet.SubtractCount(sig)
		if dist == 0 {
			exact = append(exact, scored{idx: i})
		} else {
			near = append(near, scored{idx: i, dist: dist})
		}
	}
	pick := exact
	if len(pick) == 0 {
		sort.Slice(near, func(i, j int) bool {
			if near[i].dist != near[j].dist {
				return near[i].dist < near[j].dist
			}
			return near[i].idx < near[j].idx
		})
		if len(near) > topK {
			near = near[:topK]
		}
		pick = near
	}
	for _, s := range pick {
		res.Multiplet = append(res.Multiplet, Candidate{
			Fault:     d.dict.Faults[s.idx],
			Explained: len(log.Fails) - s.dist,
		})
	}
	return res, nil
}

// syndromeDistance is the Hamming distance between failing-bit sets.
func syndromeDistance(a, b *fsim.Syndrome) int {
	dist := 0
	n := a.NumPatterns
	if b.NumPatterns > n {
		n = b.NumPatterns
	}
	for p := 0; p < n; p++ {
		var fa, fb bitset.Set
		if p < a.NumPatterns {
			fa = a.Fails[p]
		}
		if p < b.NumPatterns {
			fb = b.Fails[p]
		}
		switch {
		case fa == nil && fb == nil:
		case fa == nil:
			dist += fb.Count()
		case fb == nil:
			dist += fa.Count()
		default:
			dist += fa.SubtractCount(fb) + fb.SubtractCount(fa)
		}
	}
	return dist
}

func validate(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) error {
	if log.NumPatterns != len(pats) {
		return fmt.Errorf("baseline: datalog has %d patterns, test set has %d", log.NumPatterns, len(pats))
	}
	if log.NumPOs != len(c.POs) {
		return fmt.Errorf("baseline: datalog has %d POs, circuit has %d", log.NumPOs, len(c.POs))
	}
	return nil
}
