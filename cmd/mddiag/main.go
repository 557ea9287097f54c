// mddiag diagnoses a tester datalog against a circuit and test set: it
// reports the multiplet (the selected explanation), each member's
// equivalence class, fault-model annotations, and the consistency verdict.
//
// Usage:
//
//	mddiag -c circuit.bench -p patterns.txt -d device.datalog [-method ours|slat|intersect] [-j N]
//	mddiag explain -c circuit.bench -p patterns.txt -d device.datalog [-all] [-bits] [-j N]
//
// -j bounds the fault-parallel worker pool of the core engine's candidate
// scoring (0 = GOMAXPROCS, 1 = sequential); reports are bit-identical at
// every worker count. -conecache N attaches an N-entry cone cache — the
// flip store CPT and scoring share, private to the diagnosis otherwise —
// and diagnoses twice (cold fill, then the warm replay that is printed);
// reports are bit-identical in both cache states and at any capacity.
// scripts/determinism_check.sh holds the engine to both claims in CI.
//
// The explain subcommand replays the diagnosis with the candidate flight
// recorder attached and renders a per-candidate lifecycle narrative
// (extract → score → cover → refine → xcheck) plus the per-failing-bit
// "who explains this bit" table.
//
// Observability (see DESIGN.md §Observability):
//
//	-v                per-phase timing, counter and histogram-quantile summary footer
//	-trace-out f      JSONL span/run records of the diagnosis (.gz compresses)
//	-span-out f       mdtrace/v1 span tree of the diagnosis (.gz compresses)
//	-explain-out f    JSONL candidate flight-recorder events (.gz compresses)
//	-cpuprofile f     pprof CPU profile
//	-memprofile f     pprof heap profile at exit
//	-debug-addr a     live net/http/pprof + expvar + Prometheus /metrics listener
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"multidiag/internal/baseline"
	"multidiag/internal/cio"
	"multidiag/internal/core"
	"multidiag/internal/explain"
	"multidiag/internal/fsim"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		if err := explainMain(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		circ    = flag.String("c", "", "circuit .bench file (required)")
		pfile   = flag.String("p", "", "pattern file (required)")
		dfile   = flag.String("d", "", "datalog file (required)")
		method  = flag.String("method", "ours", "diagnosis engine: ours|slat|intersect")
		top     = flag.Int("top", 10, "also list the top-N ranked candidates (ours)")
		jobs    = flag.Int("j", 0, "fault-parallel workers for candidate scoring (0 = GOMAXPROCS, 1 = sequential; ours)")
		ccap    = flag.Int("conecache", 0, "attach a cone cache (the flip store CPT and scoring share) of this capacity and diagnose twice — cold fill, then a warm replay whose report is the one printed; reports must be identical in both states, and with a capacity too small to hold the flips (ours; used by the CI determinism check)")
		spanOut = flag.String("span-out", "", "write the diagnosis's span tree as mdtrace JSONL to `file` (.gz compresses; ours)")
		verbose = flag.Bool("v", false, "print a per-phase timing and counter summary footer")
	)
	var inst prof.Flags
	inst.Register(flag.CommandLine)
	inst.RegisterExplain(flag.CommandLine)
	flag.Parse()
	if *circ == "" || *pfile == "" || *dfile == "" {
		fmt.Fprintln(os.Stderr, "mddiag: -c, -p and -d are required")
		os.Exit(2)
	}
	if err := run(inst, *circ, *pfile, *dfile, *method, *spanOut, *top, *jobs, *ccap, *verbose); err != nil {
		fatal(err)
	}
}

// run is the diagnose command body. It returns instead of exiting so the
// deferred finish always executes: an early error must still flush and
// close the -trace-out / -explain-out gzip sinks, otherwise a partial
// .gz stream is left without its trailer and the whole file is
// unreadable.
func run(inst prof.Flags, circ, pfile, dfile, method, spanOut string, top, jobs, ccap int, verbose bool) (err error) {
	// The flight recorder instruments the core engine only, so other
	// methods fail fast rather than writing an empty file.
	if inst.ExplainOut != "" && method != "ours" {
		return fmt.Errorf("-explain-out records the core engine only (method %q)", method)
	}
	tr, rec, finish, err := inst.Setup("mddiag")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()
	c, pats, log, err := loadInputs(circ, pfile, dfile)
	if err != nil {
		return err
	}

	switch method {
	case "ours":
		// -span-out runs the diagnosis under a span tree, the same
		// instrumentation a served request gets, and writes the tree as one
		// mdtrace/v1 JSON line for cmd/mdtrace to analyze.
		ctx := context.Background()
		var tree *trace.Tree
		if spanOut != "" {
			tree = trace.NewTree(trace.TraceID{})
			ctx = trace.WithTree(ctx, tree)
		}
		cfg := core.Config{Explain: rec, Workers: jobs}
		if ccap > 0 {
			// Fill the cache with a throwaway pass so the printed report
			// reflects the warm-cache state; -conecache 0 (the default)
			// leaves each diagnosis on its simulator's private store.
			cfg.ConeCache = fsim.NewConeCache(ccap)
			if _, err := core.DiagnoseCtx(ctx, c, pats, log, core.Config{Workers: jobs, ConeCache: cfg.ConeCache}); err != nil {
				return err
			}
		}
		res, err := core.DiagnoseCtx(ctx, c, pats, log, cfg)
		if err != nil {
			return err
		}
		if tree != nil {
			if err := writeSpanTree(spanOut, tree); err != nil {
				return err
			}
		}
		if err := core.WriteReport(os.Stdout, c, res, len(log.FailingPatterns()), top); err != nil {
			return err
		}
	case "slat":
		res, err := baseline.SLAT(c, pats, log, 0)
		if err != nil {
			return err
		}
		fmt.Printf("SLAT patterns %d, non-SLAT %d; elapsed %s\n",
			res.SLATPatterns, res.NonSLATPatterns, res.Elapsed)
		for i, cd := range res.Multiplet {
			fmt.Printf("#%d %s  explains %d SLAT patterns\n", i+1, cd.Fault.Name(c), cd.Explained)
		}
	case "intersect":
		res, err := baseline.Intersection(c, pats, log)
		if err != nil {
			return err
		}
		fmt.Printf("%d suspects after intersection+vindication; elapsed %s\n",
			len(res.Multiplet), res.Elapsed)
		for i, cd := range res.Multiplet {
			fmt.Printf("#%d %s\n", i+1, cd.Fault.Name(c))
		}
	default:
		return fmt.Errorf("unknown method %q", method)
	}

	if verbose {
		printSummary(tr)
	}
	return nil
}

// writeSpanTree serializes the finished tree to path as mdtrace JSONL.
func writeSpanTree(path string, tree *trace.Tree) (err error) {
	sink, err := obs.CreateSink(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
	}()
	return tree.Record().WriteJSONL(sink)
}

// explainMain is the explain subcommand: replay the diagnosis with the
// flight recorder attached and render the candidate narratives and the
// per-bit explanation table. Like run, it returns errors so the deferred
// finish fires on every path.
func explainMain(args []string) (err error) {
	fs := flag.NewFlagSet("mddiag explain", flag.ExitOnError)
	var (
		circ  = fs.String("c", "", "circuit .bench file (required)")
		pfile = fs.String("p", "", "pattern file (required)")
		dfile = fs.String("d", "", "datalog file (required)")
		all   = fs.Bool("all", false, "narrate every pruned candidate (default: first 10)")
		bits  = fs.Bool("bits", true, "render the per-failing-bit explanation table")
		jobs  = fs.Int("j", 0, "fault-parallel workers for candidate scoring (0 = GOMAXPROCS, 1 = sequential)")
	)
	var inst prof.Flags
	inst.Register(fs)
	inst.RegisterExplain(fs)
	fs.Parse(args)
	if *circ == "" || *pfile == "" || *dfile == "" {
		fmt.Fprintln(os.Stderr, "mddiag explain: -c, -p and -d are required")
		os.Exit(2)
	}
	_, rec, finish, err := inst.Setup("mddiag")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()
	if rec == nil {
		rec = explain.New("mddiag") // no -explain-out: retain in memory only
	}
	c, pats, log, err := loadInputs(*circ, *pfile, *dfile)
	if err != nil {
		return err
	}
	res, err := core.Diagnose(c, pats, log, core.Config{Explain: rec, Workers: *jobs})
	if err != nil {
		return err
	}
	fmt.Printf("diagnosis: %d evidence bits, %d candidates extracted, multiplet size %d, elapsed %s\n\n",
		len(res.Evidence), res.CandidatesExtracted, len(res.Multiplet), res.Elapsed)
	events, dropped := rec.Events()
	maxOther := 10
	if *all {
		maxOther = -1
	}
	if err := explain.RenderNarrative(os.Stdout, events, maxOther); err != nil {
		return err
	}
	if *bits {
		fmt.Println()
		if err := explain.RenderBitTable(os.Stdout, events); err != nil {
			return err
		}
	}
	if dropped > 0 {
		fmt.Printf("(%d events dropped past the in-memory retention cap; the JSONL stream is complete)\n", dropped)
	}
	return nil
}

// loadInputs reads the circuit, pattern and datalog files shared by both
// commands.
func loadInputs(circ, pfile, dfile string) (*netlist.Circuit, []sim.Pattern, *tester.Datalog, error) {
	c, _, err := cio.LoadCircuit(circ, false)
	if err != nil {
		return nil, nil, nil, err
	}
	pf, err := os.Open(pfile)
	if err != nil {
		return nil, nil, nil, err
	}
	pats, err := tester.ReadPatterns(pf)
	pf.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	df, err := os.Open(dfile)
	if err != nil {
		return nil, nil, nil, err
	}
	log, err := tester.ReadDatalog(df)
	df.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	return c, pats, log, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mddiag:", err)
	os.Exit(1)
}

// printSummary is the -v footer: per-phase wall time, the counter
// snapshot of the run, and one line per histogram with count/sum and the
// p50/p95/p99/max quantile summaries derived from the log₂ buckets.
func printSummary(tr *obs.Trace) {
	phases := tr.PhaseStats()
	if len(phases) > 0 {
		fmt.Println("--- phases ---")
		for _, ps := range phases {
			fmt.Printf("  %-24s %6d× %12s\n", ps.Name, ps.Count, ps.Total)
		}
	}
	// With -prof, the per-phase allocation/contention attribution table
	// (the same numbers mdprof reports from a -prof-out stream).
	if c := prof.Active(); c != nil {
		fmt.Println("--- profile (per phase) ---")
		prof.WriteTable(os.Stdout, c.Phases())
	}
	reg := tr.Registry()
	histNames := reg.HistogramNames()
	isHistKey := func(name string) bool {
		for _, h := range histNames {
			if strings.HasPrefix(name, h+".") {
				return true
			}
		}
		return false
	}
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		if isHistKey(name) {
			continue
		}
		names = append(names, name)
	}
	if len(names) > 0 {
		sort.Strings(names)
		fmt.Println("--- counters ---")
		for _, name := range names {
			fmt.Printf("  %-32s %d\n", name, snap[name])
		}
	}
	if len(histNames) > 0 {
		fmt.Println("--- histograms ---")
		for _, name := range histNames {
			h := reg.Histogram(name)
			fmt.Printf("  %-32s count=%d sum=%d p50≤%d p95≤%d p99≤%d max≤%d\n",
				name, h.Count(), h.Sum(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
		}
	}
}
