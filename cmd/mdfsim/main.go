// mdfsim fault-simulates a pattern set against a circuit's collapsed
// stuck-at universe and reports coverage and per-fault detection.
//
// Usage:
//
//	mdfsim -c circuit.bench -p patterns.txt [-v] [-j N]
//
// -j shards the collapsed fault universe across a worker pool (0 =
// GOMAXPROCS, 1 = sequential); the report is identical at every count.
//
// Observability: -trace-out writes JSONL span/run records (simulation
// counters included); -cpuprofile, -memprofile and -debug-addr enable the
// pprof hooks (DESIGN.md §Observability).
package main

import (
	"flag"
	"fmt"
	"os"

	"multidiag/internal/cio"
	"multidiag/internal/fault"
	"multidiag/internal/fsim"
	"multidiag/internal/prof"
	"multidiag/internal/tester"
)

func main() {
	var (
		circ    = flag.String("c", "", "circuit .bench file (required)")
		pfile   = flag.String("p", "", "pattern file (required)")
		jobs    = flag.Int("j", 0, "fault-parallel workers (0 = GOMAXPROCS, 1 = sequential)")
		verbose = flag.Bool("v", false, "list per-fault detection")
	)
	var inst prof.Flags
	inst.Register(flag.CommandLine)
	flag.Parse()
	if *circ == "" || *pfile == "" {
		fmt.Fprintln(os.Stderr, "mdfsim: -c and -p are required")
		os.Exit(2)
	}
	if err := run(inst, *circ, *pfile, *jobs, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "mdfsim:", err)
		os.Exit(1)
	}
}

// run is the command body. It returns instead of exiting so the deferred
// finish always executes: an input error must still flush and close the
// -trace-out / -prof-out gzip sinks, or the .gz is left without its
// trailer and the whole file is unreadable.
func run(inst prof.Flags, circ, pfile string, jobs int, verbose bool) (err error) {
	tr, _, finish, err := inst.Setup("mdfsim")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()
	c, _, err := cio.LoadCircuit(circ, false)
	if err != nil {
		return err
	}
	pf, err := os.Open(pfile)
	if err != nil {
		return err
	}
	pats, err := tester.ReadPatterns(pf)
	pf.Close()
	if err != nil {
		return err
	}
	if len(pats) == 0 {
		return fmt.Errorf("no patterns in %s", pfile)
	}
	fs, err := fsim.NewFaultSim(c, pats)
	if err != nil {
		return err
	}
	fs.Observe(tr.Registry())
	sp := tr.Span("fsim.parallel")
	universe := fault.Collapse(c)
	syns := fs.SimulateStuckAtBatch(universe, jobs)
	sp.End()
	detected := 0
	for i, f := range universe {
		syn := syns[i]
		if syn.Detected() {
			detected++
			if verbose {
				fmt.Printf("DET  %-20s first pattern %d\n", f.Name(c), syn.FailingPatterns()[0])
			}
		} else if verbose {
			fmt.Printf("UND  %s\n", f.Name(c))
		}
	}
	fmt.Printf("mdfsim: %d/%d collapsed stuck-at faults detected (%.2f%%) by %d patterns\n",
		detected, len(universe), 100*float64(detected)/float64(len(universe)), len(pats))
	return nil
}
