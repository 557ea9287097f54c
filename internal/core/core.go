// Package core implements the repository's primary contribution: an
// effect-cause logic-diagnosis engine for circuits containing an unknown
// number of defects, making no assumptions about failing-pattern
// characteristics (the DAC 2008 methodology — see DESIGN.md for the full
// provenance note).
//
// What "no assumptions" means operationally:
//
//   - Evidence is collected per failing *output*, not per failing pattern:
//     a failing pattern may be jointly caused by several defects, each
//     contributing a subset of its failing outputs, so the engine never
//     requires one candidate to explain a whole pattern (the SLAT
//     assumption of earlier work, available here only as the ablation
//     switch Config.PerPatternCover and as the baseline package's SLAT
//     engine).
//
//   - Candidates come from critical path tracing of the *observed* faulty
//     behaviour (effect-cause), not from a precomputed fault dictionary, so
//     no defect model is assumed during extraction; fault models (stuck-at,
//     dominant bridge, open) are assigned afterwards to whatever the
//     evidence supports.
//
//   - Defect interaction is tolerated twice: the misprediction penalty is
//     soft (another defect may mask a candidate's predicted error), and the
//     final multiplet is validated by an X-masking consistency check that
//     treats every candidate site as simultaneously unknown.
//
// The main entry point is Diagnose.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"multidiag/internal/bitset"
	"multidiag/internal/explain"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Config tunes the diagnosis engine. The zero value selects the published
// defaults; the ablation experiments (T5) flip individual fields.
type Config struct {
	// Lambda is the per-bit misprediction penalty in the greedy cover gain
	// function gain = covered − Lambda·mispredicted. It is deliberately
	// < 1: a candidate's predicted error can be masked by another defect,
	// so mispredictions are weak evidence against a candidate. Default 0.3.
	Lambda float64
	// MaxMultipletSize bounds the number of selected candidates. Default 10.
	MaxMultipletSize int
	// PerPatternCover, when true, reintroduces the SLAT-style assumption:
	// a candidate may only cover a failing pattern it explains exactly
	// (all of the pattern's failing outputs, no others on that pattern).
	// Ablation only; default false.
	PerPatternCover bool
	// DisableXConsistency turns off the X-masking consistency pass
	// (ablation only).
	DisableXConsistency bool
	// DisableBridgeSearch turns off dominant-bridge aggressor refinement.
	DisableBridgeSearch bool
	// ApproxCPT replaces exact critical path tracing with the classical
	// branch-sensitivity approximation during candidate extraction
	// (ablation only; see fsim.CriticalWord).
	ApproxCPT bool
	// Workers bounds the fault-parallel candidate-scoring pool: seeds are
	// sharded across this many goroutines, each owning a forked simulator,
	// with results merged by seed index so the report is bit-identical to a
	// sequential run. 0 (the default) selects GOMAXPROCS; 1 forces the
	// sequential engine. The CLIs expose it as -j.
	Workers int
	// ConeCache, when set, is the flip store extraction and scoring share
	// (per (net, pattern word), what flipping the net changes at the
	// outputs; see fsim.ConeCache) in place of the simulator's private
	// one. Shared by the caller, as the experiment campaigns, the service
	// and the volume pipeline do, it carries flips across diagnoses of
	// devices built from one (circuit, test set) workload. The cache binds
	// to the first workload shape it sees; a mismatched circuit/test set
	// is refused and the diagnosis runs on its private store. Callers
	// observe hit/miss/eviction counters via ConeCache.Observe.
	ConeCache *fsim.ConeCache
	// BridgeLevelWindow bounds aggressor search to nets within this many
	// topological levels of the victim. Default 3.
	BridgeLevelWindow int
	// MaxAggressorsPerVictim caps the aggressor candidates simulated per
	// victim. Default 128.
	MaxAggressorsPerVictim int
	// SharedSim, when set, supplies a prewarmed fault simulator built by
	// fsim.NewFaultSim from exactly this diagnosis's circuit and pattern
	// set. The engine then skips the goodsim phase and — because the
	// simulator carries the syndrome arena and the fork free list — reuses
	// the same scratch pools across requests, the serving batcher's steady
	// state. A simulator whose circuit or pattern count does not match is
	// ignored (the engine builds its own). Diagnoses sharing one simulator
	// must be serialized by the caller; concurrent use requires one
	// SharedSim per in-flight diagnosis.
	SharedSim *fsim.FaultSim
	// Trace receives per-phase spans and counters for this diagnosis (see
	// DESIGN.md §Observability for the span taxonomy). Nil falls back to
	// obs.Global(), which is itself nil — tracing disabled, near-zero
	// overhead — unless a CLI or harness installed one.
	Trace *obs.Trace
	// Explain receives one flight-recorder event per candidate per stage
	// (extract → score → cover → refine → xcheck; see DESIGN.md §8). Nil —
	// the default — disables recording at pointer-test cost.
	Explain *explain.Recorder
}

func (cfg *Config) fill() {
	if cfg.Lambda == 0 {
		cfg.Lambda = 0.3
	}
	if cfg.MaxMultipletSize <= 0 {
		cfg.MaxMultipletSize = 10
	}
	if cfg.BridgeLevelWindow <= 0 {
		cfg.BridgeLevelWindow = 3
	}
	if cfg.MaxAggressorsPerVictim <= 0 {
		cfg.MaxAggressorsPerVictim = 128
	}
	if cfg.Trace == nil {
		cfg.Trace = obs.Global()
	}
}

// ModelKind classifies the fault model(s) assigned to a candidate.
type ModelKind uint8

// Model kinds. StuckOrOpen covers both a stuck-at and the logically
// indistinguishable net-open; BridgeModel names a discovered aggressor.
const (
	StuckOrOpen ModelKind = iota
	BridgeModel
)

// String names the model kind.
func (k ModelKind) String() string {
	switch k {
	case StuckOrOpen:
		return "stuck/open"
	case BridgeModel:
		return "bridge"
	}
	return fmt.Sprintf("ModelKind(%d)", uint8(k))
}

// Model is one fault-model assignment on a candidate site.
type Model struct {
	Kind ModelKind
	// Aggressor is set for BridgeModel.
	Aggressor netlist.NetID
	// Mispredictions under this model (lower is a better fit).
	Mispredictions int
}

// Candidate is one suspect — an equivalence class of sites whose predicted
// behaviour under the test set is identical, so the tester cannot tell them
// apart. Reporting the whole class (instead of an arbitrary member) is what
// diagnosis tools do in practice: physical failure analysis inspects every
// indistinguishable site.
type Candidate struct {
	// Fault is the representative stuck-at hypothesis (site + polarity).
	Fault fault.StuckAt
	// Equivalent lists further hypotheses with identical syndromes under
	// this test set (representative excluded).
	Equivalent []fault.StuckAt
	// Covered is the set of evidence bits (observed failing (pattern,PO)
	// pairs, indexed per Result.Evidence) this candidate predicts.
	Covered bitset.Set
	// TFSF counts observed-fail bits the candidate predicts (== Covered.Count()).
	TFSF int
	// TPSF counts predicted-fail bits the tester observed passing
	// (mispredictions; soft evidence against).
	TPSF int
	// Models lists the fault models consistent with this site's evidence,
	// best first.
	Models []Model
}

// Name renders the candidate's representative site, e.g. "G16 sa0".
func (cd *Candidate) Name(c *netlist.Circuit) string { return cd.Fault.Name(c) }

// Nets returns the nets this candidate points failure analysis at: the
// whole equivalence class plus any discovered bridge aggressors.
func (cd *Candidate) Nets() []netlist.NetID {
	nets := []netlist.NetID{cd.Fault.Net}
	for _, e := range cd.Equivalent {
		nets = append(nets, e.Net)
	}
	for _, m := range cd.Models {
		if m.Kind == BridgeModel {
			nets = append(nets, m.Aggressor)
		}
	}
	return nets
}

// EvidenceBit identifies one observed failing (pattern, PO) pair.
type EvidenceBit struct {
	Pattern int
	PO      int
}

// Result is the diagnosis outcome.
type Result struct {
	// Multiplet is the selected explanation, in selection order.
	Multiplet []*Candidate
	// Ranked is every scored candidate, best first (the multiplet members
	// lead the ranking).
	Ranked []*Candidate
	// Evidence enumerates the observed failing bits; Candidate.Covered
	// indexes into it.
	Evidence []EvidenceBit
	// UnexplainedBits counts evidence not covered by the multiplet.
	UnexplainedBits int
	// Consistent reports whether the X-masking check accepted the multiplet
	// (true when the check is disabled or there is nothing to explain).
	Consistent bool
	// InconsistentPatterns lists failing patterns the X-check could not
	// reconcile with the multiplet.
	InconsistentPatterns []int
	// CandidatesExtracted counts the raw effect-cause extraction yield.
	CandidatesExtracted int
	// Elapsed is the wall-clock diagnosis time.
	Elapsed time.Duration
}

// MultipletNets flattens the multiplet into per-candidate net groups
// (adapter for the metrics package).
func (r *Result) MultipletNets() [][]netlist.NetID {
	out := make([][]netlist.NetID, len(r.Multiplet))
	for i, cd := range r.Multiplet {
		out[i] = cd.Nets()
	}
	return out
}

// ErrCanceled is returned (wrapped, so errors.Is applies) when a
// diagnosis is abandoned because its context was canceled or its deadline
// passed. The engine checks the context between phases and between
// scoring chunks, so a long-running diagnosis stops within one cone-pass
// granule of the cancellation.
var ErrCanceled = errors.New("diagnosis canceled")

// checkpoint returns a wrapped ErrCanceled once ctx is done, nil
// otherwise. phase names where the engine stopped, for operators reading
// request logs.
func checkpoint(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: %w in %s: %v", ErrCanceled, phase, err)
	}
	return nil
}

// Diagnose locates candidate defect sites explaining the datalog.
//
// Inputs: the (fault-free) circuit design, the applied test patterns, and
// the tester datalog. The engine never sees the defective netlist — only
// its observable behaviour.
func Diagnose(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog, cfg Config) (*Result, error) {
	return DiagnoseCtx(context.Background(), c, pats, log, cfg)
}

// DiagnoseCtx is Diagnose under a context: cancellation (or a deadline)
// is observed between phases and between candidate-scoring chunks, and
// surfaces as a wrapped ErrCanceled. The result is bit-identical to
// Diagnose when the context never fires. It is DiagnoseBatch for one
// device: the root span is "diagnose", Config.Explain is honoured, and
// Elapsed is that whole span.
func DiagnoseCtx(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog, cfg Config) (*Result, error) {
	results, errs, err := DiagnoseBatch(ctx, c, pats, []*tester.Datalog{log}, cfg)
	if err == nil {
		err = errs[0]
	}
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// DiagnoseBatch diagnoses the devices of one (circuit, test set) workload
// in one pass; it is the engine's only pipeline. Each device gets the
// shape check, its evidence universe and its effect-cause extraction. One
// fault-parallel scoring pass then simulates the union of the devices'
// seeds, so a seed shared by several devices simulates once (syndromes do
// not depend on a datalog), and each device folds the syndromes of its own
// seeds in its own seed order. Cover, refinement and the X-check run per
// device. A device's Result therefore does not depend on its batchmates.
//
// Results and errors are positional (results[i]/errs[i] mirror logs[i];
// exactly one of the pair is set). The returned error is reserved for
// whole-batch failures — simulator construction or cancellation — in
// which case the positional slices are partial.
//
// A one-device call is DiagnoseCtx: its root span is "diagnose" and its
// Elapsed is the whole span. A coalesced call (mdserve's micro-batches)
// opens "diagnose_batch", counts itself in the core.batch_* counters,
// ignores Config.Explain (several devices' events would interleave
// meaninglessly) and gives each device the Elapsed from its own start to
// the end of its X-check, which includes the shared scoring pass. A call
// in which no device has failing patterns to extract from builds no
// simulator.
func DiagnoseBatch(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, logs []*tester.Datalog, cfg Config) (results []*Result, errs []error, err error) {
	cfg.fill()
	solo := len(logs) == 1
	rootName := "diagnose"
	if !solo {
		rootName = "diagnose_batch"
		cfg.Explain = nil
	}
	// Each phase is one prof.Phase handle: it opens and closes the obs
	// span, the request-tree span (when ctx carries a tree) and, on the
	// stages, the prof window together, so every sink sees the same
	// phases. With all of them off it is still a stopwatch, which is what
	// fills a solo Result.Elapsed.
	root := prof.Open(ctx, cfg.Trace, rootName)
	results = make([]*Result, len(logs))
	errs = make([]error, len(logs))
	defer func() {
		if d := root.End(); solo && results[0] != nil {
			results[0].Elapsed = d
		}
	}()
	if !solo {
		root.SetInt("devices", int64(len(logs)))
	}
	reg := cfg.Trace.Registry()
	rec := cfg.Explain
	workers := fsim.Workers(cfg.Workers)

	// Per device: shape check, evidence universe, effect-cause extraction.
	// The simulator is built just before the first extraction.
	type device struct {
		res     *Result
		log     *tester.Datalog
		start   time.Time
		evIndex map[EvidenceBit]int
		seeds   []fault.StuckAt
		folder  *scoreFolder
		folded  int // seeds folded so far
		cands   []*Candidate
		ev      evLookup
	}
	var devs []*device
	var fs *fsim.FaultSim
	totalSeeds := 0
	for i, log := range logs {
		start := time.Now()
		if err := checkShape(c, pats, log); err != nil {
			errs[i] = err
			continue
		}
		res := &Result{Consistent: true}
		results[i] = res
		failing := log.FailingPatterns()
		if len(failing) == 0 {
			res.Elapsed = time.Since(start)
			continue // passing device: nothing to explain
		}

		ph := root.Open("evidence")
		evIndex := indexEvidence(res, log, failing, reg)
		ph.SetInt("evidence_bits", int64(len(res.Evidence)))
		ph.SetInt("failing_patterns", int64(len(failing)))
		ph.End()
		if rec.Enabled() {
			bits := make([]explain.Bit, len(res.Evidence))
			for j, b := range res.Evidence {
				bits[j] = explain.Bit{Pattern: b.Pattern, PO: b.PO}
			}
			rec.Evidence(bits)
		}

		if fs == nil {
			if fs, err = openSim(ctx, root, c, pats, cfg, reg); err != nil {
				return results, errs, err
			}
		}
		// Step 1: effect-cause candidate extraction via CPT per failing
		// output (see extractCandidates).
		ph = root.Open("extract")
		seeds := extractCandidates(ph.Ctx(), fs, log, cfg.ApproxCPT, workers, rec)
		ph.SetInt("device", int64(i))
		ph.SetInt("seeds", int64(len(seeds)))
		ph.End()
		if err := checkpoint(ctx, "extract"); err != nil {
			return results, errs, err
		}
		res.CandidatesExtracted = len(seeds)
		reg.Counter("core.candidates_extracted").Add(int64(len(seeds)))
		totalSeeds += len(seeds)
		devs = append(devs, &device{res: res, log: log, start: start, evIndex: evIndex, seeds: seeds})
	}

	// Step 2: score the union of the seed lists by cone-limited fault
	// simulation. The simulations are independent, so the union shards
	// across the worker pool in contiguous chunks (fsim.parallel span);
	// chunks arrive on this goroutine in union order, each syndrome folds
	// into every device that extracted its seed, strictly in that
	// device's seed order, and then goes back to the arena. Seed-order
	// folding keeps every downstream decision — equivalence classes,
	// cover tie-breaks, ranking — bit-identical to a sequential per-seed
	// loop; chunk-wise folding keeps the live syndrome count bounded by
	// the worker pool rather than the seed count. The pool runs under
	// fsim.parallel's context, so worker goroutines inherit phase=score
	// (and any workload label) and their allocations land in the score
	// window.
	set := bitset.New(2 * c.NumGates())
	for _, dv := range devs {
		for _, f := range dv.seeds {
			set.Add(seedBit(f))
		}
	}
	union := seedsOf(set)
	if !solo {
		reg.Counter("core.batch_devices").Add(int64(len(logs)))
		reg.Counter("core.batch_union_seeds").Add(int64(len(union)))
		reg.Counter("core.batch_seed_reuse").Add(int64(totalSeeds - len(union)))
	}
	if len(devs) == 0 {
		return results, errs, nil
	}
	ph := root.Open("score")
	ph.SetInt("workers", int64(workers))
	ph.SetInt("union_seeds", int64(len(union)))
	ph.SetInt("seed_reuse", int64(totalSeeds-len(union)))
	reg.Gauge("fsim.workers").Set(int64(workers))
	// Folders are built inside the score window: their evidence lookup
	// tables are scoring's allocations.
	for _, dv := range devs {
		dv.folder = newScoreFolder(c, dv.seeds, dv.log, dv.evIndex, len(dv.res.Evidence), cfg, rec)
	}
	par := ph.Open("fsim.parallel")
	fs.SimulateStuckAtChunksCtx(par.Ctx(), union, workers, func(start int, syns []*fsim.Syndrome) {
		for i, syn := range syns {
			for _, dv := range devs {
				if dv.folded < len(dv.seeds) && dv.seeds[dv.folded] == union[start+i] {
					dv.folder.fold(dv.folded, syn)
					dv.folded++
				}
			}
			fs.ReleaseSyndrome(syn)
		}
	})
	par.End()
	if err := checkpoint(ctx, "score"); err != nil {
		ph.End()
		return results, errs, err
	}
	scored := 0
	for _, dv := range devs {
		// The folder dies here, its class map with it (the largest object
		// scoring leaves); refinement only needs the evidence lookup.
		dv.cands, dv.ev = dv.folder.finish(), dv.folder.ev
		dv.folder = nil
		scored += len(dv.cands)
		reg.Counter("core.candidates_scored").Add(int64(len(dv.cands)))
		reg.Counter("core.candidates_pruned").Add(int64(len(dv.seeds) - len(dv.cands)))
	}
	ph.SetInt("candidates", int64(scored))
	ph.End()

	// Steps 3–5 plus ranking, per device.
	for _, dv := range devs {
		if err := finishDiagnosis(ctx, root, c, fs, dv.log, &dv.ev, dv.cands, dv.res, cfg, reg, rec); err != nil {
			return results, errs, err
		}
		dv.res.Elapsed = time.Since(dv.start)
	}
	if solo {
		root.SetInt("multiplet", int64(len(results[0].Multiplet)))
	}
	return results, errs, nil
}

// seedBit numbers a hypothesis 2·net + polarity, so the members of a set
// of them, in ascending order, are the hypotheses sorted by (net,
// stuck-at-0 first): the order of every seed list and of their union.
func seedBit(f fault.StuckAt) int {
	if f.Value1 {
		return 2*int(f.Net) + 1
	}
	return 2 * int(f.Net)
}

// seedsOf lists a set of seedBit numbers as hypotheses, in seed order.
func seedsOf(set bitset.Set) []fault.StuckAt {
	members := set.AppendMembers(make([]int, 0, set.Count()))
	seeds := make([]fault.StuckAt, len(members))
	for i, k := range members {
		seeds[i] = seedOf(k)
	}
	return seeds
}

// seedOf inverts seedBit.
func seedOf(k int) fault.StuckAt { return fault.StuckAt{Net: netlist.NetID(k / 2), Value1: k%2 == 1} }

// Seeds runs the effect-cause front end alone: exact critical path tracing
// of every observed failing output of every fully determinate failing
// pattern, returning the stuck-at-complement hypotheses sorted by (net,
// polarity). It is Diagnose's extraction on one worker with no recorder,
// for engines that keep the front end but change what follows it.
func Seeds(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) ([]fault.StuckAt, error) {
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		return nil, err
	}
	return extractCandidates(context.Background(), fs, log, false, 1, nil), nil
}

// Select is the back half of the pipeline over syndromes the caller
// simulated: syns[i] is the predicted behaviour of seeds[i] in the
// datalog's observation space. It indexes the datalog's failing bits,
// folds the syndromes in seed order into equivalence-class candidates,
// runs the greedy per-output cover and ranks the rest, exactly as
// Diagnose does. Engines that observe the circuit through another
// encoding (compacted outputs, two-pattern delay tests) simulate their
// own syndromes and share this back half with the core engine.
//
// Select has no refinement and no X-check, so Consistent only says
// whether a multiplet was found, as in Diagnose with both disabled.
// Config.Explain is ignored.
func Select(c *netlist.Circuit, seeds []fault.StuckAt, syns []*fsim.Syndrome, log *tester.Datalog, cfg Config) *Result {
	cfg.fill()
	res := &Result{Consistent: true, CandidatesExtracted: len(seeds)}
	failing := log.FailingPatterns()
	if len(failing) == 0 {
		return res
	}
	evIndex := indexEvidence(res, log, failing, cfg.Trace.Registry())
	cands := scoreCandidates(c, syns, seeds, log, evIndex, len(res.Evidence), cfg, nil)
	multiplet, uncovered := cover(c, cands, len(res.Evidence), cfg, nil)
	res.Multiplet = multiplet
	res.UnexplainedBits = uncovered.Count()
	res.Consistent = len(multiplet) > 0
	res.Ranked = rank(multiplet, cands)
	return res
}

// checkShape rejects a datalog recorded against a different test set or
// circuit.
func checkShape(c *netlist.Circuit, pats []sim.Pattern, log *tester.Datalog) error {
	if log.NumPatterns != len(pats) {
		return fmt.Errorf("core: datalog has %d patterns, test set has %d", log.NumPatterns, len(pats))
	}
	if log.NumPOs != len(c.POs) {
		return fmt.Errorf("core: datalog has %d POs, circuit has %d", log.NumPOs, len(c.POs))
	}
	return nil
}

// indexEvidence enumerates the observed failing bits of the failing
// patterns into res.Evidence and returns each bit's index.
func indexEvidence(res *Result, log *tester.Datalog, failing []int, reg *obs.Registry) map[EvidenceBit]int {
	evIndex := make(map[EvidenceBit]int)
	for _, p := range failing {
		for _, po := range log.Fails[p].Members() {
			bit := EvidenceBit{Pattern: p, PO: po}
			evIndex[bit] = len(res.Evidence)
			res.Evidence = append(res.Evidence, bit)
		}
	}
	reg.Counter("core.evidence_bits").Add(int64(len(res.Evidence)))
	reg.Counter("core.failing_patterns").Add(int64(len(failing)))
	return evIndex
}

// openSim builds what every diagnosis of one workload runs on: the fault
// simulator — cfg.SharedSim when its shape matches, else a private one
// built in the goodsim phase — observed on reg with cfg.ConeCache
// attached.
func openSim(ctx context.Context, root prof.Phase, c *netlist.Circuit, pats []sim.Pattern, cfg Config, reg *obs.Registry) (*fsim.FaultSim, error) {
	ph := root.Open("goodsim")
	fs := cfg.SharedSim
	if fs != nil && (fs.Circuit() != c || fs.NumPatterns() != len(pats)) {
		fs = nil // shape mismatch: fall back to a private simulator
	}
	var err error
	if fs == nil {
		fs, err = fsim.NewFaultSim(c, pats)
	}
	ph.End()
	if err != nil {
		return nil, err
	}
	fs.Observe(reg)
	if cfg.ConeCache != nil && !fs.AttachCache(cfg.ConeCache) {
		reg.Counter("fsim.cone_cache_rejected").Inc()
	}
	return fs, checkpoint(ctx, "goodsim")
}

// finishDiagnosis runs one device's post-scoring pipeline — greedy
// per-output covering, fault-model refinement, the X-masking consistency
// check and the final ranking — filling res in place, its phases nested
// under root.
func finishDiagnosis(ctx context.Context, root prof.Phase, c *netlist.Circuit, fs *fsim.FaultSim, log *tester.Datalog, ev *evLookup, cands []*Candidate, res *Result, cfg Config, reg *obs.Registry, rec *explain.Recorder) error {
	// Step 3: greedy per-output covering.
	ph := root.Open("cover")
	multiplet, uncovered := cover(c, cands, len(res.Evidence), cfg, rec)
	ph.SetInt("multiplet", int64(len(multiplet)))
	ph.SetInt("uncovered", int64(uncovered.Count()))
	ph.End()
	res.Multiplet = multiplet
	res.UnexplainedBits = uncovered.Count()
	reg.Histogram("core.multiplet_size").Observe(int64(len(multiplet)))
	reg.Counter("core.unexplained_bits").Add(int64(res.UnexplainedBits))
	if err := checkpoint(ctx, "cover"); err != nil {
		return err
	}

	// Step 4: fault-model refinement (bridge aggressor search).
	if !cfg.DisableBridgeSearch {
		ph = root.Open("refine")
		refineModels(c, fs, multiplet, ev, cfg, reg, rec)
		ph.End()
		if err := checkpoint(ctx, "refine"); err != nil {
			return err
		}
	} else if rec.Enabled() {
		for _, cd := range multiplet {
			rec.Refine(cd.Fault.String(), cd.Name(c), modelFits(c, cd, nil), explain.VerdictSkipped)
		}
	}

	// Step 5: X-masking consistency check.
	if !cfg.DisableXConsistency && len(multiplet) > 0 {
		ph = root.Open("xcheck")
		res.Consistent, res.InconsistentPatterns = xConsistent(fs, multiplet, log)
		ph.End()
		if !res.Consistent {
			reg.Counter("core.xcheck_inconsistent").Inc()
		}
		if rec.Enabled() {
			verdict := explain.VerdictConsistent
			if !res.Consistent {
				verdict = explain.VerdictInconsistent
			}
			for _, cd := range multiplet {
				rec.XCheck(cd.Fault.String(), cd.Name(c), verdict, res.InconsistentPatterns)
			}
		}
	} else if len(multiplet) == 0 {
		res.Consistent = false
	} else if rec.Enabled() {
		for _, cd := range multiplet {
			rec.XCheck(cd.Fault.String(), cd.Name(c), explain.VerdictSkipped, nil)
		}
	}

	res.Ranked = rank(multiplet, cands)
	return nil
}

// rank orders every scored candidate for the report: multiplet members
// first (selection order), then the rest by (TFSF desc, TPSF asc, net id,
// stuck-at-0 first).
func rank(multiplet, cands []*Candidate) []*Candidate {
	inMult := map[*Candidate]bool{}
	for _, m := range multiplet {
		inMult[m] = true
	}
	rest := make([]*Candidate, 0, len(cands))
	for _, cd := range cands {
		if !inMult[cd] {
			rest = append(rest, cd)
		}
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].TFSF != rest[j].TFSF {
			return rest[i].TFSF > rest[j].TFSF
		}
		if rest[i].TPSF != rest[j].TPSF {
			return rest[i].TPSF < rest[j].TPSF
		}
		if rest[i].Fault.Net != rest[j].Fault.Net {
			return rest[i].Fault.Net < rest[j].Fault.Net
		}
		return !rest[i].Fault.Value1
	})
	return append(append([]*Candidate{}, multiplet...), rest...)
}

// extractCandidates back-traces every observed failing output of every
// fully determinate failing pattern with CPT and returns the union of
// (net, stuck-at-complement) hypotheses, sorted by (net, stuck-at-0
// first). Patterns with X inputs are skipped for extraction (they still
// participate in scoring).
//
// The failing patterns are traced one pattern word at a time
// (fsim.CriticalWord, which shards the word's stem propagations across
// up to workers simulators); each hypothesis is marked in a seedBit set,
// read in ascending order as the sorted seed list, so the list is
// identical at any worker count. With a recorder attached, every
// hypothesis is attributed, in pattern order, to the failing bits whose
// back-cone yielded it — per (pattern, PO) on the exact path, per pattern
// (PO −1) on the approximate path.
func extractCandidates(ctx context.Context, fs *fsim.FaultSim, log *tester.Datalog, approx bool, workers int, rec *explain.Recorder) []fault.StuckAt {
	c := fs.Circuit()
	traced := make([]bitset.Set, fs.NumPatterns())
	for p, set := range log.Fails {
		if determinate(fs.Patterns()[p]) {
			traced[p] = set
		}
	}
	found := bitset.New(2 * c.NumGates())
	var (
		perPO   func(po int, crit []uint64)
		crit    map[int][]uint64 // exact CPT: the word's per-PO masks, for the recorder
		sources map[fault.StuckAt][]explain.Bit
	)
	if rec.Enabled() {
		sources = map[fault.StuckAt][]explain.Bit{}
		if !approx {
			crit = map[int][]uint64{}
			perPO = func(po int, m []uint64) { crit[po] = append(crit[po][:0], m...) }
		}
	}
	for w := 0; w < fs.NumWords() && ctx.Err() == nil; w++ {
		union := fs.CriticalWord(ctx, w, traced, approx, workers, perPO)
		for n, u := range union {
			if u == 0 {
				continue
			}
			// The hypothesis is the stuck-at of the complement of the
			// net's fault-free value on the patterns it is critical on.
			f := fault.StuckAt{Net: netlist.NetID(n)}
			if g := fs.GoodWord(f.Net, w); u&g.V1&^g.V0 != 0 {
				found.Add(seedBit(f))
			}
			if g := fs.GoodWord(f.Net, w); u&g.V0&^g.V1 != 0 {
				f.Value1 = true
				found.Add(seedBit(f))
			}
		}
		if rec.Enabled() {
			attribute(fs, w, traced, union, crit, sources)
		}
	}
	out := seedsOf(found)
	if rec.Enabled() {
		for _, f := range out {
			rec.Extract(f.String(), f.Name(c), sources[f])
		}
	}
	return out
}

// attribute appends, for each traced pattern of word w in order and each
// hypothesis its trace yielded in (net, polarity) order, the failing bits
// that yielded it: each failing PO whose own masks mark the net, or the
// pattern alone (PO −1) without per-PO masks (approximate CPT).
func attribute(fs *fsim.FaultSim, w int, traced []bitset.Set, union []uint64, crit map[int][]uint64, sources map[fault.StuckAt][]explain.Bit) {
	for s := 0; s < logic.W && w*logic.W+s < len(traced); s++ {
		p := w*logic.W + s
		if traced[p] == nil {
			continue
		}
		pos := traced[p].Members()
		for n, u := range union {
			v := fs.GoodValue(netlist.NetID(n), p)
			if u>>uint(s)&1 == 0 || !v.IsKnown() {
				continue
			}
			f := fault.StuckAt{Net: netlist.NetID(n), Value1: v == logic.Zero}
			if crit == nil {
				sources[f] = append(sources[f], explain.Bit{Pattern: p, PO: -1})
				continue
			}
			for _, po := range pos {
				if crit[po][n]>>uint(s)&1 == 1 {
					sources[f] = append(sources[f], explain.Bit{Pattern: p, PO: po})
				}
			}
		}
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

// evLookup classifies a (pattern, PO) bit of one datalog: its evidence
// index when the datalog records it failing, evPassing when the tester
// observed it passing, evUnknown when the tester never observed it — every
// unrecorded bit from a truncated datalog's cut on (Truncate may store a
// partly captured pattern at the cut). Scoring and bridge refinement both
// resolve predicted failures through it, so one type decides what was
// observed. For workload shapes where the dense table is affordable it is
// a flat int32 array — one load on the innermost scoring loop, no map
// hashing, no composite-key boxing; very large pattern×PO products fall
// back to the map the caller already built.
type evLookup struct {
	flat   []int32 // index [p*numPOs+po]
	numPOs int
	m      map[EvidenceBit]int
	cut    int // first pattern whose unrecorded bits are unknown
}

// Bit classes evLookup.get returns instead of an evidence index.
const (
	evPassing = -1
	evUnknown = -2
)

// evLookupFlatMax bounds the dense table (entries, i.e. 4 bytes each).
const evLookupFlatMax = 1 << 22

func newEvLookup(log *tester.Datalog, evIndex map[EvidenceBit]int) evLookup {
	l := evLookup{numPOs: log.NumPOs, cut: log.NumPatterns}
	if log.Truncated {
		l.cut = log.TruncatedAfter
	}
	if log.NumPatterns*log.NumPOs > evLookupFlatMax {
		l.m = evIndex
		return l
	}
	l.flat = make([]int32, log.NumPatterns*log.NumPOs)
	for i := range l.flat {
		l.flat[i] = evPassing
	}
	for i := max(l.cut, 0) * l.numPOs; i < len(l.flat); i++ {
		l.flat[i] = evUnknown
	}
	for bit, idx := range evIndex {
		l.flat[bit.Pattern*l.numPOs+bit.PO] = int32(idx)
	}
	return l
}

// get returns the bit's evidence index, or evPassing or evUnknown.
func (l *evLookup) get(p, po int) int {
	if l.flat != nil {
		return int(l.flat[p*l.numPOs+po])
	}
	if idx, ok := l.m[EvidenceBit{Pattern: p, PO: po}]; ok {
		return idx
	}
	if p >= l.cut {
		return evUnknown
	}
	return evPassing
}

// scoreFolder folds syndromes — strictly in seed order — into scored
// equivalence-class candidates. Seeds with identical syndromes under this
// test set merge into one candidate (they are indistinguishable by any
// scoring that follows); folding in seed order keeps class representatives
// and candidate order independent of how the simulation batch was
// scheduled, so the chunked parallel engine and the sequential loop yield
// byte-identical reports.
//
// The folder owns all per-seed scratch: the class-signature byte buffer
// (per failing pattern its index, then its failing POs delta-coded — the
// first as PO + 1, each next as PO − previous, so none is 0 — as
// uvarints, then a 0; looked up with the map[string]-on-[]byte idiom), a
// member-enumeration slice, and one
// coverage bitset that is only cloned for seeds that found a new,
// non-pruned class. It never retains a syndrome, so the caller may hand
// each back to the simulator's arena once every folder has seen it.
type scoreFolder struct {
	c     *netlist.Circuit
	seeds []fault.StuckAt
	log   *tester.Datalog
	ev    evLookup
	numEv int
	cfg   Config
	rec   *explain.Recorder

	cands   []*Candidate
	classes map[string]*Candidate
	sigBuf  []byte
	memBuf  []int
	cov     bitset.Set
}

func newScoreFolder(c *netlist.Circuit, seeds []fault.StuckAt, log *tester.Datalog, evIndex map[EvidenceBit]int, numEv int, cfg Config, rec *explain.Recorder) *scoreFolder {
	return &scoreFolder{
		c:       c,
		seeds:   seeds,
		log:     log,
		ev:      newEvLookup(log, evIndex),
		numEv:   numEv,
		cfg:     cfg,
		rec:     rec,
		cands:   make([]*Candidate, 0, len(seeds)/4+1),
		classes: make(map[string]*Candidate),
		cov:     bitset.New(numEv),
	}
}

// fold scores seed si's syndrome. Callers must fold seeds in ascending
// order; a nil syndrome (canceled simulation) is skipped.
func (sf *scoreFolder) fold(si int, syn *fsim.Syndrome) {
	if syn == nil {
		return
	}
	f := sf.seeds[si]
	sf.sigBuf = sf.sigBuf[:0]
	for p, fails := range syn.Fails {
		if fails == nil {
			continue
		}
		sf.sigBuf = binary.AppendUvarint(sf.sigBuf, uint64(p))
		prev := -1
		for i, w := range fails {
			for ; w != 0; w &= w - 1 {
				po := i*64 + bits.TrailingZeros64(w)
				sf.sigBuf = binary.AppendUvarint(sf.sigBuf, uint64(po-prev))
				prev = po
			}
		}
		sf.sigBuf = append(sf.sigBuf, 0)
	}
	if rep, ok := sf.classes[string(sf.sigBuf)]; ok {
		rep.Equivalent = append(rep.Equivalent, f)
		if sf.rec.Enabled() { // guard: argument rendering is not free
			sf.rec.Merged(f.String(), f.Name(sf.c), rep.Fault.String())
		}
		return
	}
	cd := &Candidate{Fault: f}
	sf.classes[string(sf.sigBuf)] = cd
	sf.cov.Clear()
	for p, fails := range syn.Fails {
		if fails == nil {
			continue
		}
		sf.memBuf = fails.AppendMembers(sf.memBuf[:0])
		for _, po := range sf.memBuf {
			switch idx := sf.ev.get(p, po); idx {
			case evPassing:
				cd.TPSF++
			case evUnknown:
			default:
				sf.cov.Add(idx)
			}
		}
	}
	if sf.cfg.PerPatternCover {
		// SLAT-style ablation: a pattern's evidence may be kept only if
		// the candidate explains that pattern exactly.
		for _, p := range sf.log.FailingPatterns() {
			obs := sf.log.Fails[p]
			pred := syn.Fails[p]
			exact := pred != nil && pred.Equal(obs)
			if !exact {
				for _, po := range obs.Members() {
					sf.cov.Remove(sf.ev.get(p, po))
				}
			}
		}
	}
	cd.TFSF = sf.cov.Count()
	if cd.TFSF == 0 {
		// Explains nothing observable. The class entry stays (so equivalent
		// later seeds merge into it and vanish with it), but the candidate
		// is never emitted and needs no coverage set of its own.
		if sf.rec.Enabled() {
			sf.rec.Score(f.String(), f.Name(sf.c), nil, 0, cd.TPSF, nil,
				explain.VerdictPruned, "predicts no observed failing bit")
		}
		return
	}
	cd.Covered = sf.cov.Clone()
	cd.Models = []Model{{Kind: StuckOrOpen, Mispredictions: cd.TPSF}}
	sf.cands = append(sf.cands, cd)
}

// finish records the survivors (classes are final only once every seed has
// folded) and returns the scored candidates in seed order.
func (sf *scoreFolder) finish() []*Candidate {
	if sf.rec.Enabled() {
		for _, cd := range sf.cands {
			var equiv []string
			for _, e := range cd.Equivalent {
				equiv = append(equiv, e.Name(sf.c))
			}
			sf.rec.Score(cd.Fault.String(), cd.Name(sf.c), cd.Covered.Members(),
				cd.TFSF, cd.TPSF, equiv, explain.VerdictScored, "")
		}
	}
	return sf.cands
}

// scoreCandidates folds a fully materialized syndrome slice (indexed like
// seeds): Select's path, over syndromes its caller simulated.
func scoreCandidates(c *netlist.Circuit, syns []*fsim.Syndrome, seeds []fault.StuckAt, log *tester.Datalog, evIndex map[EvidenceBit]int, numEv int, cfg Config, rec *explain.Recorder) []*Candidate {
	sf := newScoreFolder(c, seeds, log, evIndex, numEv, cfg, rec)
	for si, syn := range syns {
		sf.fold(si, syn)
	}
	return sf.finish()
}

// cover greedily selects candidates to explain the evidence universe.
// Returns the multiplet and the uncovered evidence bits.
func cover(c *netlist.Circuit, cands []*Candidate, numEv int, cfg Config, rec *explain.Recorder) ([]*Candidate, bitset.Set) {
	remaining := bitset.New(numEv)
	for i := 0; i < numEv; i++ {
		remaining.Add(i)
	}
	var multiplet []*Candidate
	used := make(map[*Candidate]bool)
	for len(multiplet) < cfg.MaxMultipletSize && !remaining.Empty() {
		var best *Candidate
		bestGain := 0.0
		bestCov := 0
		for _, cd := range cands {
			if used[cd] {
				continue
			}
			cov := cd.Covered.IntersectCount(remaining)
			if cov == 0 {
				continue
			}
			gain := float64(cov) - cfg.Lambda*float64(cd.TPSF)
			better := false
			switch {
			case best == nil:
				better = true
			case gain > bestGain:
				better = true
			case gain == bestGain:
				// Deterministic tie-breaks: more coverage, fewer
				// mispredictions, lower net id.
				if cov != bestCov {
					better = cov > bestCov
				} else if cd.TPSF != best.TPSF {
					better = cd.TPSF < best.TPSF
				} else {
					better = cd.Fault.Net < best.Fault.Net
				}
			}
			if better {
				best, bestGain, bestCov = cd, gain, cov
			}
		}
		if best == nil {
			break // nothing covers the residue
		}
		// A candidate with non-positive gain is only taken when it is the
		// sole way to make progress — explaining all observed failures
		// outranks the soft misprediction penalty (defect masking makes
		// mispredictions unreliable witnesses).
		used[best] = true
		multiplet = append(multiplet, best)
		remaining.SubtractWith(best.Covered)
		if rec.Enabled() {
			rec.Kept(best.Fault.String(), best.Name(c), len(multiplet), bestGain, bestCov)
		}
	}
	if rec.Enabled() {
		recordCoverPruned(c, cands, multiplet, used, remaining, cfg, rec)
	}
	return multiplet, remaining
}

// recordCoverPruned emits the cover-stage verdict for every candidate the
// greedy selection passed over, naming the multiplet member that overlaps
// most of its coverage (the dominating competitor).
func recordCoverPruned(c *netlist.Circuit, cands, multiplet []*Candidate, used map[*Candidate]bool, remaining bitset.Set, cfg Config, rec *explain.Recorder) {
	for _, cd := range cands {
		if used[cd] {
			continue
		}
		var dom *Candidate
		overlap := 0
		for _, m := range multiplet {
			if ov := cd.Covered.IntersectCount(m.Covered); ov > overlap {
				dom, overlap = m, ov
			}
		}
		domName := ""
		if dom != nil {
			domName = dom.Name(c)
		}
		reason := "all covered bits already explained by the multiplet"
		switch {
		case cd.Covered.IntersectCount(remaining) > 0 && len(multiplet) >= cfg.MaxMultipletSize:
			reason = "residual coverage but multiplet size cap reached"
		case overlap == 0:
			reason = "no overlap with any evidence the cover reached"
		}
		rec.CoverPruned(cd.Fault.String(), cd.Name(c), domName, overlap, reason)
	}
}

// xConsistent validates the multiplet: with every member site injected as
// simultaneously unknown (X), every observed failing output must receive X
// (otherwise the multiplet cannot produce that failure under any behaviour
// of the sites, so something is missing or wrong).
func xConsistent(fs *fsim.FaultSim, multiplet []*Candidate, log *tester.Datalog) (bool, []int) {
	sites := make([]netlist.NetID, 0, len(multiplet))
	for _, cd := range multiplet {
		sites = append(sites, cd.Fault.Net)
	}
	xReach := fs.SimulateXAt(sites)
	var bad []int
	for _, p := range log.FailingPatterns() {
		reach := xReach[p]
		ok := true
		for _, po := range log.Fails[p].Members() {
			if reach == nil || !reach.Has(po) {
				ok = false
				break
			}
		}
		if !ok {
			bad = append(bad, p)
		}
	}
	return len(bad) == 0, bad
}
