// mdexp regenerates every table and figure of the evaluation (DESIGN.md §4,
// recorded in EXPERIMENTS.md).
//
// Usage:
//
//	mdexp              # full suite (minutes)
//	mdexp -quick       # reduced sizes/seeds (tens of seconds)
//	mdexp -only T3     # one experiment
//	mdexp -j 8         # total worker budget (campaign × fault workers)
//
// Observability: -trace-out writes one JSONL "run" record per table/figure
// and per campaign (plus the engines' span stream); -cpuprofile,
// -memprofile and -debug-addr enable the pprof hooks; -quality-out writes
// the per-campaign quality records mdtrend gates on; -stall-after arms a
// watchdog that dumps goroutine stacks when no device completes in time
// (DESIGN.md §Observability).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"multidiag/internal/exp"
	"multidiag/internal/prof"
	"multidiag/internal/qrec"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced workloads for a fast run")
		seeds      = flag.Int("seeds", 0, "devices per configuration (0 = default)")
		only       = flag.String("only", "", "run a single experiment: T1..T9, F1..F4")
		jobs       = flag.Int("j", 0, "total worker budget shared by campaign and fault-parallel pools (0 = GOMAXPROCS)")
		progress   = flag.Int("progress", 0, "print a live progress heartbeat to stderr every `N` seconds (0 = off)")
		qualityOut = flag.String("quality-out", "", "write per-campaign quality records (qrec JSON) to `file` (\"-\" = stdout)")
		stallAfter = flag.Duration("stall-after", 0, "dump goroutine stacks to stderr when no device completes within this duration (0 = off)")
	)
	var inst prof.Flags
	inst.Register(flag.CommandLine)
	inst.RegisterExplain(flag.CommandLine)
	flag.Parse()
	if err := run(inst, *quick, *seeds, *only, *jobs, *progress, *qualityOut, *stallAfter); err != nil {
		fatal(err)
	}
}

// run is the command body. It returns instead of exiting so the deferred
// cleanups always execute: a failed experiment must still flush and close
// the -trace-out / -explain-out gzip sinks (a gzip stream abandoned
// without its trailer is unreadable) and write whatever quality records
// the campaigns already produced.
func run(inst prof.Flags, quick bool, seeds int, only string, jobs, progress int, qualityOut string, stallAfter time.Duration) (err error) {
	tr, rec, finish, err := inst.Setup("mdexp")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()
	o := exp.Options{Quick: quick, Seeds: seeds, Workers: jobs, Emitter: tr.Emitter(), Explain: rec}
	if progress > 0 {
		o.Progress = exp.NewProgress(os.Stderr, time.Duration(progress)*time.Second)
	}
	if qualityOut != "" {
		o.Quality = &qrec.Collector{}
	}
	o.Watchdog = exp.NewWatchdog(os.Stderr, stallAfter)
	defer func() {
		o.Progress.Stop()
		o.Watchdog.Stop()
		if e := writeQuality(qualityOut, o.Quality); err == nil {
			err = e
		}
	}()

	if only == "" {
		return exp.All(os.Stdout, o)
	}
	fns := map[string]func(*exp.Options) error{
		"T1": func(o *exp.Options) error { return exp.T1Characteristics(os.Stdout, *o) },
		"T2": func(o *exp.Options) error { return exp.T2SingleDefect(os.Stdout, *o) },
		"T3": func(o *exp.Options) error { return exp.T3MultiDefect(os.Stdout, *o) },
		"T4": func(o *exp.Options) error { return exp.T4PatternCharacter(os.Stdout, *o) },
		"T5": func(o *exp.Options) error { return exp.T5Ablation(os.Stdout, *o) },
		"T6": func(o *exp.Options) error { return exp.T6IntraCell(os.Stdout, *o) },
		"T7": func(o *exp.Options) error { return exp.T7DelayDefects(os.Stdout, *o) },
		"T8": func(o *exp.Options) error { return exp.T8ResolutionImprovement(os.Stdout, *o) },
		"T9": func(o *exp.Options) error { return exp.T9Compaction(os.Stdout, *o) },
		"F1": func(o *exp.Options) error { return exp.F1AccuracyVsDefects(os.Stdout, *o) },
		"F2": func(o *exp.Options) error { return exp.F2ResolutionVsDefects(os.Stdout, *o) },
		"F3": func(o *exp.Options) error { return exp.F3Runtime(os.Stdout, *o) },
		"F4": func(o *exp.Options) error { return exp.F4DefectTypes(os.Stdout, *o) },
	}
	fn, ok := fns[only]
	if !ok {
		return fmt.Errorf("unknown experiment %q", only)
	}
	return fn(&o)
}

// writeQuality serializes the collected quality records ("-" = stdout).
// No-op when no -quality-out was requested.
func writeQuality(path string, col *qrec.Collector) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return col.File().Encode(os.Stdout)
	}
	return qrec.Write(path, col.File())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdexp:", err)
	os.Exit(1)
}
