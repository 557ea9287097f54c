// Coalesced multi-device diagnosis. The serving layer batches concurrent
// requests against one (circuit, test set) workload; diagnosing them
// together lets the expensive middle of the pipeline — candidate scoring
// by full fault simulation — run once over the union of every device's
// seeds instead of once per device. Syndromes depend only on (fault,
// circuit, patterns), never on a device's datalog, so a seed shared by
// several devices simulates once and each device folds the shared
// syndrome through its own evidence. Everything downstream of scoring
// (cover, refine, xcheck, ranking) reuses the single-device pipeline
// verbatim, which is what makes batch reports bit-identical to solo ones.
package core

import (
	"context"
	"time"

	"multidiag/internal/explain"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// DiagnoseBatch diagnoses several devices of one (circuit, test set)
// workload in a coalesced pass: one simulator, one CPT, and one
// fault-parallel scoring sweep over the union of every device's candidate
// seeds. Per-device results and errors are returned positionally
// (results[i]/errs[i] mirror logs[i]; exactly one of the pair is set).
// The returned error is reserved for whole-batch failures — simulator
// construction or cancellation — in which case the positional slices are
// partial.
//
// Each device's Result is bit-identical to what Diagnose would produce
// for the same datalog: scoring folds the shared syndromes in the
// device's own seed order, and cover/refine/xcheck/ranking run the
// single-device code path.
//
// Config.Explain is ignored here (flight-recorder events from several
// devices would interleave meaninglessly); callers wanting a narrative
// diagnose that device solo. Per-device Elapsed includes the device's
// share of the coalesced scoring pass.
func DiagnoseBatch(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, logs []*tester.Datalog, cfg Config) ([]*Result, []error, error) {
	cfg.fill()
	cfg.Explain = nil
	// Request-scoped tree: the batcher parents this under the leader
	// request's execute span; inert when the context carries no tree.
	root := prof.Open(ctx, cfg.Trace, "diagnose_batch")
	defer root.End()
	root.SetInt("devices", int64(len(logs)))
	reg := cfg.Trace.Registry()
	var rec *explain.Recorder // always disabled in batch mode

	results := make([]*Result, len(logs))
	errs := make([]error, len(logs))

	fs, cpt, err := openSims(ctx, root, c, pats, cfg, reg)
	if err != nil {
		return results, errs, err
	}

	// Per-device evidence and effect-cause extraction, unioning the seed
	// lists. unionIdx maps a fault to its slot in the shared scoring pass.
	type devState struct {
		start   time.Time
		evIndex map[EvidenceBit]int
		seeds   []fault.StuckAt
	}
	states := make([]*devState, len(logs))
	unionIdx := make(map[fault.StuckAt]int)
	var union []fault.StuckAt
	totalSeeds := 0
	for i, log := range logs {
		if err := checkpoint(ctx, "extract"); err != nil {
			return results, errs, err
		}
		st := &devState{start: time.Now()}
		if err := checkShape(c, pats, log); err != nil {
			errs[i] = err
			continue
		}
		res := &Result{Consistent: true}
		failing := log.FailingPatterns()
		if len(failing) == 0 {
			res.Elapsed = time.Since(st.start)
			results[i] = res // passing device: nothing to explain
			continue
		}
		st.evIndex = indexEvidence(res, log, failing, reg)

		ph := root.Open("extract")
		seeds, err := extractCandidates(ph.Ctx(), c, cpt, pats, log, cfg.ApproxCPT, fsim.Workers(cfg.Workers), rec)
		ph.SetInt("device", int64(i))
		ph.SetInt("seeds", int64(len(seeds)))
		ph.End()
		if err != nil {
			errs[i] = err
			continue
		}
		st.seeds = seeds
		res.CandidatesExtracted = len(seeds)
		reg.Counter("core.candidates_extracted").Add(int64(len(seeds)))
		totalSeeds += len(seeds)
		for _, f := range seeds {
			if _, ok := unionIdx[f]; !ok {
				unionIdx[f] = len(union)
				union = append(union, f)
			}
		}
		results[i] = res
		states[i] = st
	}
	reg.Counter("core.batch_devices").Add(int64(len(logs)))
	reg.Counter("core.batch_union_seeds").Add(int64(len(union)))
	reg.Counter("core.batch_seed_reuse").Add(int64(totalSeeds - len(union)))

	// One coalesced scoring sweep over the union.
	ph := root.Open("score")
	workers := fsim.Workers(cfg.Workers)
	ph.SetInt("workers", int64(workers))
	ph.SetInt("union_seeds", int64(len(union)))
	ph.SetInt("seed_reuse", int64(totalSeeds-len(union)))
	reg.Gauge("fsim.workers").Set(int64(workers))
	par := ph.Open("fsim.parallel")
	syns := fs.SimulateStuckAtBatchCtx(par.Ctx(), union, workers)
	par.End()
	ph.End()
	if err := checkpoint(ctx, "score"); err != nil {
		return results, errs, err
	}

	// Per-device tail of the pipeline, each folding its own view of the
	// shared syndromes in its own seed order.
	for i := range logs {
		st := states[i]
		if st == nil || st.seeds == nil {
			continue // failed validation/extraction, or passing device
		}
		if err := checkpoint(ctx, "score"); err != nil {
			return results, errs, err
		}
		res := results[i]
		devSyns := make([]*fsim.Syndrome, len(st.seeds))
		for j, f := range st.seeds {
			devSyns[j] = syns[unionIdx[f]]
		}
		cands := scoreCandidates(c, devSyns, st.seeds, logs[i], st.evIndex, len(res.Evidence), cfg, rec)
		reg.Counter("core.candidates_scored").Add(int64(len(cands)))
		reg.Counter("core.candidates_pruned").Add(int64(len(st.seeds) - len(cands)))
		if err := finishDiagnosis(ctx, root, c, fs, logs[i], st.evIndex, cands, res, cfg, reg, rec); err != nil {
			results[i] = nil
			errs[i] = err
			return results, errs, err
		}
		res.Elapsed = time.Since(st.start)
	}
	// The shared syndromes outlive every device fold but nothing else:
	// hand them back to the simulator's arena so the next batch on a
	// shared simulator reuses them instead of reallocating.
	for _, s := range syns {
		fs.ReleaseSyndrome(s)
	}
	return results, errs, nil
}
