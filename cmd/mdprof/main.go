// mdprof analyzes the continuous-profiling snapshot streams the engines
// write with -prof-out (and serve at /debug/prof): per-phase
// allocation/contention attribution tables and diffs between two runs.
// The per-phase allocation gate and its committed baseline live in
// mdgate (prof, prof-baseline).
//
// Usage:
//
//	mdprof report run.prof.jsonl             # attribution table of one run
//	mdprof diff base.jsonl cur.jsonl         # per-phase per-call deltas
//
// Inputs are mdprof/v1 JSONL (".gz" decompresses, "-" reads stdin). Both
// commands work from the LAST record carrying a phase table — the
// cumulative state at the end of the run — so partial streams from a
// killed process still analyze.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"multidiag/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "report":
		err = reportMain(os.Args[2:])
	case "diff":
		err = diffMain(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdprof:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: mdprof report <run.jsonl|->
       mdprof diff <base.jsonl> <cur.jsonl>`)
	os.Exit(2)
}

func reportMain(args []string) error {
	fs := flag.NewFlagSet("mdprof report", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	snaps, err := prof.LoadSnapshots(fs.Arg(0))
	if err != nil {
		return err
	}
	final, err := prof.Final(snaps)
	if err != nil {
		return err
	}
	fmt.Printf("run: %d snapshots over %s (%d pinned)\n",
		len(snaps), fmtSec(final.TSNS), countKind(snaps, "pin"))
	fmt.Printf("process: %s allocated / %d objects, mutex wait %s, gc pause %s, heap %s, %d goroutines\n\n",
		fmtB(final.AllocBytes), final.AllocObjects,
		fmtSec(final.MutexWaitNS), fmtSec(final.GCPauseNS),
		fmtB(final.HeapBytes), final.Goroutines)
	prof.WriteTable(os.Stdout, final.Phases)
	if pins := pinReasons(snaps); len(pins) > 0 {
		fmt.Println("\npinned snapshots:")
		for _, p := range pins {
			fmt.Printf("  %s\n", p)
		}
	}
	return nil
}

func countKind(snaps []prof.Snapshot, kind string) int {
	n := 0
	for _, s := range snaps {
		if s.Kind == kind {
			n++
		}
	}
	return n
}

// pinReasons summarizes the pin ring: "reason ×count" in first-seen order.
func pinReasons(snaps []prof.Snapshot) []string {
	counts := map[string]int{}
	var order []string
	for _, s := range snaps {
		if s.Kind != "pin" {
			continue
		}
		if counts[s.Reason] == 0 {
			order = append(order, s.Reason)
		}
		counts[s.Reason]++
	}
	out := make([]string, len(order))
	for i, r := range order {
		out[i] = fmt.Sprintf("%s ×%d", r, counts[r])
	}
	return out
}

func diffMain(args []string) error {
	fs := flag.NewFlagSet("mdprof diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	base, err := prof.LoadFinal(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := prof.LoadFinal(fs.Arg(1))
	if err != nil {
		return err
	}
	bb, cb := prof.PerCall(base.Phases), prof.PerCall(cur.Phases)
	fmt.Fprintf(os.Stdout, "%-16s %16s %16s %9s %14s %14s %9s\n",
		"phase", "base B/call", "cur B/call", "delta", "base objs", "cur objs", "delta")
	for _, name := range unionNames(bb.Phases, cb.Phases) {
		b, inBase := bb.Phases[name]
		c, inCur := cb.Phases[name]
		switch {
		case !inCur:
			fmt.Printf("%-16s %16.0f %16s %9s\n", name, b.AllocBytesPerCall, "—", "gone")
		case !inBase:
			fmt.Printf("%-16s %16s %16.0f %9s\n", name, "—", c.AllocBytesPerCall, "new")
		default:
			fmt.Printf("%-16s %16.0f %16.0f %+8.1f%% %14.1f %14.1f %+8.1f%%\n", name,
				b.AllocBytesPerCall, c.AllocBytesPerCall, pctDelta(b.AllocBytesPerCall, c.AllocBytesPerCall),
				b.AllocObjsPerCall, c.AllocObjsPerCall, pctDelta(b.AllocObjsPerCall, c.AllocObjsPerCall))
		}
	}
	return nil
}

func unionNames(a, b map[string]prof.PhaseBaseline) []string {
	seen := map[string]bool{}
	for n := range a {
		seen[n] = true
	}
	for n := range b {
		seen[n] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// pctDelta is the percentage change base → cur (0 when base is 0: a
// phase that allocated nothing before cannot regress by percentage, and
// the "new phase" path reports genuinely new work).
func pctDelta(base, cur float64) float64 {
	if base <= 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func fmtSec(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
}

func fmtB(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
