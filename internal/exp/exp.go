// Package exp defines the reproducible experiment suite: every table (T1…)
// and figure (F1…) in DESIGN.md §4 is regenerated by one function here,
// shared between the mdexp command and the repository benchmarks.
//
// All experiments are deterministic from their seeds. The Quick option
// shrinks circuit sizes and seed counts so the whole suite runs in CI time;
// shapes (who wins, where methods degrade) are preserved.
package exp

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"multidiag/internal/atpg"
	"multidiag/internal/baseline"
	"multidiag/internal/circuits"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/explain"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/metrics"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/qrec"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks workloads for CI/test runs.
	Quick bool
	// Seeds is the number of defect-injection repetitions per configuration
	// (default 20, quick 6).
	Seeds int
	// Radius is the localization radius for region accuracy (default 1).
	Radius int
	// Workers is the total parallelism budget shared by the nested pools:
	// a campaign runs min(Workers, devices) concurrent diagnoses, and each
	// diagnosis gets the remaining budget (Workers / campaign workers) as
	// its fault-parallel pool, so campaign × fault workers never exceeds
	// the budget. 0 (the default) selects GOMAXPROCS. The mdexp CLI
	// exposes it as -j.
	Workers int
	// Emitter, when set, receives one JSONL "run" record per table/figure
	// and per campaign (plus the span stream of the traced engines). It is
	// shared by concurrent diagnoses; Emitter serializes internally.
	Emitter *obs.Emitter
	// Explain, when set, receives candidate flight-recorder events from
	// every core diagnosis the suite runs (the mdexp -explain-out flag).
	// It is shared by the concurrent device workers; Recorder serializes
	// internally.
	Explain *explain.Recorder
	// Progress, when set, receives per-campaign device totals and
	// completion ticks for the live heartbeat (the mdexp -progress flag).
	Progress *Progress
	// Quality, when set, collects one machine-readable quality record per
	// (campaign, method) — the payload of mdexp -quality-out and the
	// mdgate quality regression gate. Shared by concurrent device workers; the
	// collector serializes internally.
	Quality *qrec.Collector
	// Watchdog, when set, is ticked on every completed device; it dumps
	// goroutine stacks when a campaign stalls past its deadline (the mdexp
	// -stall-after flag).
	Watchdog *Watchdog
}

func (o *Options) fill() {
	if o.Seeds <= 0 {
		if o.Quick {
			o.Seeds = 6
		} else {
			o.Seeds = 20
		}
	}
	if o.Radius <= 0 {
		o.Radius = 1
	}
}

// tableTrace creates the per-table trace for one experiment, wired to the
// options' emitter. The returned finish ends the table's root span and
// emits the table's "run" record (phase aggregates + counter snapshot);
// call it once, before rendering.
func tableTrace(o Options, table string) (*obs.Trace, func() error) {
	tr := obs.New(table)
	tr.SetEmitter(o.Emitter)
	root := tr.Span("exp." + table)
	return tr, func() error {
		root.End()
		tr.Registry().Counter("exp.tables_rendered").Inc()
		return tr.EmitRun(nil)
	}
}

// Workload is one benchmark circuit with its generated test set.
type Workload struct {
	Circuit  *netlist.Circuit
	Patterns []sim.Pattern
	Coverage float64
}

var (
	wlMu    sync.Mutex
	wlCache = map[string]*Workload{}
)

// NamedWorkload builds (and caches) a named benchmark circuit plus its
// ATPG test set. The names are the experiment suite's workload set (c17,
// add16, …, b0300…b8000); the diagnosis service reuses them so a server
// can be stood up without external netlist files.
func NamedWorkload(name string) (*Workload, error) { return workload(name) }

// workload builds (and caches) a named circuit plus its ATPG test set.
func workload(name string) (*Workload, error) {
	wlMu.Lock()
	defer wlMu.Unlock()
	if wl, ok := wlCache[name]; ok {
		return wl, nil
	}
	var (
		c   *netlist.Circuit
		err error
	)
	switch name {
	case "c17":
		c = circuits.C17()
	case "add16":
		c, err = circuits.RippleAdder(16)
	case "mul6":
		c, err = circuits.ArrayMultiplier(6)
	case "alu8":
		c, err = circuits.ALUSlice(8)
	case "cla16":
		c, err = circuits.CarryLookaheadAdder(16)
	case "bshift16":
		c, err = circuits.BarrelShifter(4)
	case "cmp8":
		c, err = circuits.Comparator(8)
	case "b0300":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 300, NumPIs: 16, NumGates: 300, NumPOs: 12})
	case "b0500":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 500, NumPIs: 20, NumGates: 500, NumPOs: 16})
	case "b1000":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 1000, NumPIs: 24, NumGates: 1000, NumPOs: 20})
	case "b2000":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 2000, NumPIs: 32, NumGates: 2000, NumPOs: 24})
	case "b4000":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 4000, NumPIs: 40, NumGates: 4000, NumPOs: 32})
	case "b8000":
		c, err = circuits.Generate(circuits.GenConfig{Name: name, Seed: 8000, NumPIs: 48, NumGates: 8000, NumPOs: 40})
	default:
		return nil, fmt.Errorf("exp: unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	res, err := atpg.Generate(c, atpg.Config{Seed: 7})
	if err != nil {
		return nil, err
	}
	wl := &Workload{Circuit: c, Patterns: res.Patterns, Coverage: res.Coverage()}
	wlCache[name] = wl
	return wl, nil
}

// circuitsFor returns the workload names for an option set.
func circuitsFor(o Options) []string {
	if o.Quick {
		return []string{"c17", "add16", "b0300"}
	}
	return []string{"c17", "add16", "cla16", "mul6", "alu8", "cmp8", "bshift16", "b0500", "b1000", "b2000"}
}

// Method identifies a diagnosis engine under comparison.
type Method string

// The compared methods.
const (
	MethodOurs         Method = "ours"
	MethodSLAT         Method = "slat"
	MethodIntersection Method = "intersect"
	MethodDictionary   Method = "dict"
)

// RunOutcome is one (device, method) diagnosis result summary.
type RunOutcome struct {
	Method  Method
	Score   metrics.Score
	Region  metrics.Score
	Cands   int
	Elapsed time.Duration
	// NonSLATFrac is the non-SLAT failing-pattern fraction of the device
	// (filled for every method from the SLAT run).
	NonSLATFrac float64
	// Consistent is the core engine's X-check verdict (ours only).
	Consistent bool
}

// device is one injected DUT.
type device struct {
	defects []defect.Defect
	log     *tester.Datalog
}

// makeDevices samples, injects and tests devices until `count` activated
// (≥1 failing pattern) devices exist.
func makeDevices(wl *Workload, count, multiplicity int, baseSeed int64, mix defect.CampaignConfig) ([]device, error) {
	var out []device
	for seed := baseSeed; len(out) < count && seed < baseSeed+int64(count)*20; seed++ {
		cfg := mix
		cfg.Seed = seed
		cfg.NumDefects = multiplicity
		ds, err := defect.Sample(wl.Circuit, cfg)
		if err != nil {
			return nil, err
		}
		dev, err := defect.Inject(wl.Circuit, ds)
		if err != nil {
			continue // composed-cycle sample; skip
		}
		log, err := tester.ApplyTest(wl.Circuit, dev, wl.Patterns)
		if err != nil {
			return nil, err
		}
		if len(log.Fails) == 0 {
			continue // test escape: nothing to diagnose
		}
		out = append(out, device{defects: ds, log: log})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exp: no activated devices for %s multiplicity %d", wl.Circuit.Name, multiplicity)
	}
	return out, nil
}

// sharedSim is the per-campaign simulation context threaded into every
// device diagnosis: the cone cache shared by all of a workload's devices
// and the per-diagnosis fault-parallel worker count (the fault share of
// the campaign's nested-parallelism budget). The plumbing itself lives in
// fsim.Shared so the diagnosis service can reuse it for its per-workload
// warm caches.
type sharedSim = fsim.Shared

// newSharedSim builds the campaign simulation context: one cone cache —
// observed into tr's registry — and the fault-worker share left over once
// devWorkers concurrent diagnoses claim their slice of the total budget.
func newSharedSim(tr *obs.Trace, budget, devWorkers int) sharedSim {
	return fsim.NewShared(tr.Registry(), budget, devWorkers)
}

// runMethods diagnoses one device with the selected methods. The core
// engine is traced into tr (per-phase spans and counters), records into
// o.Explain when set, and runs with ss's fault-parallel worker share and
// shared cone cache; the baselines keep using the process-global trace,
// matching their exported signatures. Each finished device ticks
// o.Progress and o.Watchdog.
func runMethods(tr *obs.Trace, wl *Workload, dev device, methods []Method, dict *baseline.Dictionary, o Options, ss sharedSim) ([]RunOutcome, error) {
	defer o.Progress.Done(1)
	defer o.Watchdog.Tick()
	var out []RunOutcome
	nonSLAT := -1.0
	slatRes, err := baseline.SLAT(wl.Circuit, wl.Patterns, dev.log, 0)
	if err != nil {
		return nil, err
	}
	if tot := slatRes.SLATPatterns + slatRes.NonSLATPatterns; tot > 0 {
		nonSLAT = float64(slatRes.NonSLATPatterns) / float64(tot)
	}
	for _, m := range methods {
		var (
			nets    [][]netlist.NetID
			elapsed time.Duration
			consist bool
		)
		switch m {
		case MethodOurs:
			// The campaign label doubles as the pprof workload label, so a
			// CPU profile of a multi-campaign mdexp run slices per campaign
			// (no-op without a prof collector).
			pctx, unlabel := prof.WithWorkload(context.Background(), tr.Label())
			res, err := core.DiagnoseCtx(pctx, wl.Circuit, wl.Patterns, dev.log, core.Config{
				Trace: tr, Explain: o.Explain, Workers: ss.Workers, ConeCache: ss.Cache})
			unlabel()
			if err != nil {
				return nil, err
			}
			nets, elapsed, consist = res.MultipletNets(), res.Elapsed, res.Consistent
		case MethodSLAT:
			nets, elapsed = slatRes.Nets(), slatRes.Elapsed
		case MethodIntersection:
			res, err := baseline.Intersection(wl.Circuit, wl.Patterns, dev.log)
			if err != nil {
				return nil, err
			}
			nets, elapsed = res.Nets(), res.Elapsed
		case MethodDictionary:
			if dict == nil {
				continue
			}
			res, err := dict.Diagnose(dev.log, 5)
			if err != nil {
				return nil, err
			}
			nets, elapsed = res.Nets(), res.Elapsed
		}
		var cands []metrics.Candidate
		for _, ns := range nets {
			cands = append(cands, metrics.Candidate{Nets: ns})
		}
		out = append(out, RunOutcome{
			Method:      m,
			Score:       metrics.Evaluate(dev.defects, cands),
			Region:      metrics.EvaluateRegion(wl.Circuit, dev.defects, cands, o.Radius),
			Cands:       len(cands),
			Elapsed:     elapsed,
			NonSLATFrac: nonSLAT,
			Consistent:  consist,
		})
	}
	return out, nil
}

// FaultCoverage computes collapsed stuck-at coverage of a workload's test
// set (reported in T1).
func FaultCoverage(wl *Workload) (float64, error) {
	det, tot, err := fsim.Coverage(wl.Circuit, wl.Patterns, fault.Collapse(wl.Circuit))
	if err != nil {
		return 0, err
	}
	if tot == 0 {
		return 0, nil
	}
	return float64(det) / float64(tot), nil
}

// All runs the full suite in order, writing each table/figure to w.
func All(w io.Writer, o Options) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Options) error
	}{
		{"T1", T1Characteristics},
		{"T2", T2SingleDefect},
		{"T3", T3MultiDefect},
		{"T4", T4PatternCharacter},
		{"F1", F1AccuracyVsDefects},
		{"F2", F2ResolutionVsDefects},
		{"F3", F3Runtime},
		{"F4", F4DefectTypes},
		{"T5", T5Ablation},
		{"T6", T6IntraCell},
		{"T7", T7DelayDefects},
		{"T8", T8ResolutionImprovement},
		{"T9", T9Compaction},
	}
	for _, s := range steps {
		if err := s.fn(w, o); err != nil {
			return fmt.Errorf("exp: %s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
