package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"multidiag/internal/bitset"
	"multidiag/internal/explain"
	"multidiag/internal/fsim"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/tester"
)

// refineModels searches, for each multiplet member, dominant-bridge
// aggressors that fit the member's evidence better than the plain stuck-at
// hypothesis. A dominant bridge victim behaves as a *conditional* stuck-at:
// the victim takes the aggressor's value, so errors appear only on patterns
// where the aggressor carries the complement of the victim's fault-free
// value. When a member shows mispredictions (TPSF > 0), a bridge whose
// aggressor is benignly equal to the victim on those patterns explains the
// same observed failures with fewer contradictions — exactly the evidence
// that distinguishes a short from a hard stuck net.
//
// Accepted bridge models are appended to the member's Models list (best
// first by mispredictions); the seed stuck/open model always remains, since
// logic-level behaviour cannot always separate the mechanisms.
func refineModels(c *netlist.Circuit, fs *fsim.FaultSim, multiplet []*Candidate, ev *evLookup, cfg Config, reg *obs.Registry, rec *explain.Recorder) {
	if len(multiplet) == 0 {
		return
	}
	// Members are independent victims writing only their own Models list,
	// so they shard across workers (the first on this goroutine with fs,
	// the rest on forks of it). The recorder hears about them afterwards,
	// in multiplet order.
	bridges := make([][]bridgeModelFit, len(multiplet))
	workers := min(fsim.Workers(cfg.Workers), len(multiplet))
	var next atomic.Int64
	work := func(k *fsim.FaultSim) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(multiplet) {
				return
			}
			bridges[i] = refineMember(c, k, multiplet[i], ev, cfg, reg)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		k := fs.AcquireFork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer fs.ReleaseFork(k)
			work(k)
		}()
	}
	work(fs)
	wg.Wait()
	if rec.Enabled() {
		for i, cd := range multiplet {
			rec.Refine(cd.Fault.String(), cd.Name(c), modelFits(c, cd, bridges[i]), explain.VerdictScored)
		}
	}
}

// bridgeModelFit is one accepted aggressor with its bridgeFit statistics.
type bridgeModelFit struct {
	aggr    netlist.NetID
	covered int
	tpsf    int
}

// refineMember runs the aggressor search for one multiplet member and
// returns the bridge models it accepted.
func refineMember(c *netlist.Circuit, fs *fsim.FaultSim, cd *Candidate, ev *evLookup, cfg Config, reg *obs.Registry) []bridgeModelFit {
	tested := reg.Counter("core.bridge_aggressors_tested")
	accepted := reg.Counter("core.bridge_models_accepted")
	victim := cd.Fault.Net
	aggressors := bridgeAggressors(c, victim, cfg)
	if len(aggressors) == 0 {
		return nil
	}
	tested.Add(int64(len(aggressors)))
	var fits []bridgeModelFit
	for _, a := range aggressors {
		cov, tpsf := bridgeFit(fs, victim, a, ev)
		if cov == 0 {
			continue
		}
		// The bridge must reproduce at least the evidence the stuck-at
		// hypothesis covers (otherwise it is a worse explanation) and
		// strictly reduce mispredictions to be worth reporting.
		if cov >= cd.TFSF && tpsf < cd.TPSF {
			fits = append(fits, bridgeModelFit{aggr: a, covered: cov, tpsf: tpsf})
		}
	}
	sort.Slice(fits, func(i, j int) bool {
		if fits[i].tpsf != fits[j].tpsf {
			return fits[i].tpsf < fits[j].tpsf
		}
		if fits[i].covered != fits[j].covered {
			return fits[i].covered > fits[j].covered
		}
		return fits[i].aggr < fits[j].aggr
	})
	const maxBridgeModels = 3
	fits = fits[:min(len(fits), maxBridgeModels)]
	for _, f := range fits {
		cd.Models = append(cd.Models, Model{Kind: BridgeModel, Aggressor: f.aggr, Mispredictions: f.tpsf})
	}
	accepted.Add(int64(len(fits)))
	// Keep the best-fitting model first.
	sort.SliceStable(cd.Models, func(i, j int) bool {
		return cd.Models[i].Mispredictions < cd.Models[j].Mispredictions
	})
	return fits
}

// modelFits renders a member's models, in ranked order, as recorder fit
// records: a bridge model carries its bridgeFit coverage (from bridges),
// the stuck/open model the member's TFSF.
func modelFits(c *netlist.Circuit, cd *Candidate, bridges []bridgeModelFit) []explain.ModelFit {
	mf := make([]explain.ModelFit, 0, len(cd.Models))
	for _, m := range cd.Models {
		fit := explain.ModelFit{Kind: m.Kind.String(), Covered: cd.TFSF, Mispred: m.Mispredictions}
		if m.Kind == BridgeModel {
			fit.Aggressor = c.NameOf(m.Aggressor)
			for _, b := range bridges {
				if b.aggr == m.Aggressor {
					fit.Covered = b.covered
				}
			}
		}
		mf = append(mf, fit)
	}
	return mf
}

// bridgeAggressors enumerates plausible aggressor nets for a victim:
// structurally independent nets within the configured level window,
// deterministically ordered, capped by config.
func bridgeAggressors(c *netlist.Circuit, victim netlist.NetID, cfg Config) []netlist.NetID {
	vLevel := c.Gates[victim].Level
	inCone := c.FaninCone(victim)
	outCone := c.FanoutCone(victim)
	var out []netlist.NetID
	for i := range c.Gates {
		n := netlist.NetID(i)
		if n == victim || inCone[n] || outCone[n] {
			continue
		}
		dl := c.Gates[n].Level - vLevel
		if dl < -cfg.BridgeLevelWindow || dl > cfg.BridgeLevelWindow {
			continue
		}
		out = append(out, n)
		if len(out) >= cfg.MaxAggressorsPerVictim {
			break
		}
	}
	return out
}

// bridgeFit simulates a dominant bridge (victim ← aggressor) over the test
// set and returns (covered evidence bits, mispredicted bits); a predicted
// failure the tester never observed (ev's evUnknown) counts as neither.
// Each pattern word is one Propagate forcing the victim to the
// aggressor's fault-free word, which is exactly the dominant-bridge
// semantics.
func bridgeFit(fs *fsim.FaultSim, victim, aggressor netlist.NetID, ev *evLookup) (covered, tpsf int) {
	pos := fs.Circuit().POs
	for w := 0; w < fs.NumWords(); w++ {
		for _, r := range fs.Propagate(w, fsim.Force{Net: victim, Val: fs.GoodWord(aggressor, w)}) {
			for diff := r.Val.DiffKnown(fs.GoodWord(pos[r.PO], w)); diff != 0; diff &= diff - 1 {
				p := w*logic.W + bits.TrailingZeros64(diff)
				if p >= fs.NumPatterns() {
					break
				}
				switch ev.get(p, r.PO) {
				case evPassing:
					tpsf++
				case evUnknown:
				default:
					covered++
				}
			}
		}
	}
	return covered, tpsf
}

// EvidenceSet converts a datalog into the evidence bitset layout used by a
// Result (exported for the experiment harness and tests).
func EvidenceSet(log *tester.Datalog) ([]EvidenceBit, bitset.Set) {
	var bits []EvidenceBit
	for _, p := range log.FailingPatterns() {
		for _, po := range log.Fails[p].Members() {
			bits = append(bits, EvidenceBit{Pattern: p, PO: po})
		}
	}
	all := bitset.New(len(bits))
	for i := range bits {
		all.Add(i)
	}
	return bits, all
}
