// mdgate runs the regression gates: it compares a fresh measurement with
// a committed baseline, prints a delta table, annotates every threshold
// crossing and exits 1 when one is an error.
//
// Usage:
//
//	go test -bench 'Diagnose|VolumeIngest' -benchmem ./internal/core | mdgate bench-parse -o BENCH_diag.json
//	mdgate bench BENCH_diag.json current.json [-fail-threshold 35] [-alloc-threshold 20] [-alloc-fail-threshold 35] [-missing-fatal]
//	mdgate speedup current.json -base BenchmarkDiagnoseScaling/j1 -target BenchmarkDiagnoseScaling/j8 -min 2.5
//	mdgate prof PROF_baseline.json run.prof.jsonl
//	mdgate prof-baseline run.prof.jsonl -o PROF_baseline.json
//	mdgate quality QUALITY_baseline.json current.json
//	mdgate serve base-record.json cur-record.json
//	mdgate volume base-summary.json cur-summary.json
//
// bench-parse turns `go test -bench` output on stdin into the JSON that
// bench and speedup read (the -N GOMAXPROCS suffix stripped); prof-baseline
// turns an mdprof/v1 snapshot stream into per-phase per-call allocation
// budgets. The other subcommands are gates:
//
//   - bench: ns/op growth beyond 20% warns, beyond -fail-threshold
//     fails; allocs/op and B/op growth gates on -alloc-threshold and
//     -alloc-fail-threshold; a baseline benchmark missing from the
//     current run warns, or fails under -missing-fatal.
//   - speedup: base ns/op ÷ target ns/op below -min fails.
//   - prof: per-phase bytes/call or objects/call growth beyond 25% warns,
//     beyond 50% fails, ignoring growth under 16 KiB and 256 objects.
//   - quality: a site/region accuracy or success-rate drop beyond 0.02
//     fails; resolution growth beyond 25% and ms/diagnosis growth beyond
//     200% warn.
//   - serve: a handler panic or a shed-rate rise beyond 0.05 fails; p95
//     service latency growth beyond 75% warns.
//   - volume: a dedupe-ratio drop beyond 0.02, unique-syndrome growth
//     beyond 10% or a changed defect-class distribution fails.
//
// A flag of 0 disables its threshold. Paths may precede the flags; "-"
// reads stdin, and prof streams ending in .gz decompress. Inside a GitHub
// Actions workflow findings print as ::error:: and ::warning::
// annotations on stdout, elsewhere as ERROR:/WARNING: lines on stderr.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"multidiag/internal/gate"
	"multidiag/internal/prof"
)

const usage = `usage: mdgate bench-parse [-o file] < go-test-bench-output
       mdgate bench <baseline.json> <current.json|-> [-fail-threshold pct] [-alloc-threshold pct] [-alloc-fail-threshold pct] [-missing-fatal]
       mdgate speedup <current.json|-> -base <name> -target <name> -min <ratio>
       mdgate prof <baseline.json> <run.jsonl|->
       mdgate prof-baseline <run.jsonl|-> [-o file]
       mdgate quality <baseline.json> <current.json|->
       mdgate serve <baseline.json> <current.json|->
       mdgate volume <baseline.json> <current.json|->
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errUsage reports bad arguments (exit 2); every other error exits 1.
var errUsage = errors.New("usage")

// run executes one subcommand and returns the process exit code: 0 clean
// or warnings only, 1 on an error finding or a failure, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd := args[0]
	fs := flag.NewFlagSet("mdgate "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }

	// Each case registers its flags and sets n, the positional paths it
	// takes, do, which runs it, and title, the annotation title of its
	// findings.
	var (
		n     = 2
		do    func(paths []string) ([]gate.Finding, error)
		title string
	)
	switch cmd {
	case "bench-parse":
		out := fs.String("o", "", "output file (default stdout)")
		n, do = 0, func([]string) ([]gate.Finding, error) {
			f, err := gate.ParseBench(os.Stdin)
			if err != nil {
				return nil, err
			}
			if len(f.Benchmarks) == 0 {
				return nil, errors.New("no benchmark result lines on stdin")
			}
			return nil, write(*out, stdout, stderr, f, len(f.Benchmarks), "benchmarks")
		}
	case "bench":
		var lim gate.BenchLimits
		fs.Float64Var(&lim.FailPct, "fail-threshold", 0, "ns/op growth percentage that fails")
		fs.Float64Var(&lim.Alloc.Warn, "alloc-threshold", 20, "allocs/op and B/op growth percentage that warns")
		fs.Float64Var(&lim.Alloc.Fail, "alloc-fail-threshold", 0, "allocs/op and B/op growth percentage that fails")
		fs.BoolVar(&lim.MissingFatal, "missing-fatal", false, "fail, not warn, on a baseline benchmark missing from the current run")
		title, do = gate.BenchTitle, func(paths []string) ([]gate.Finding, error) {
			base, cur, err := loadPair(gate.LoadBench, paths)
			if err != nil {
				return nil, err
			}
			return gate.Bench(stdout, base, cur, lim), nil
		}
	case "speedup":
		baseName := fs.String("base", "", "reference benchmark name (e.g. BenchmarkDiagnoseScaling/j1)")
		targetName := fs.String("target", "", "benchmark that must be faster (e.g. BenchmarkDiagnoseScaling/j8)")
		min := fs.Float64("min", 1, "minimum speedup (base ns/op ÷ target ns/op)")
		n, title, do = 1, gate.BenchTitle, func(paths []string) ([]gate.Finding, error) {
			if *baseName == "" || *targetName == "" {
				fs.Usage()
				return nil, errUsage
			}
			f, err := gate.LoadBench(paths[0])
			if err != nil {
				return nil, err
			}
			return gate.Speedup(stdout, f, *baseName, *targetName, *min)
		}
	case "prof":
		title, do = gate.ProfTitle, func(paths []string) ([]gate.Finding, error) {
			base, err := gate.LoadProfBaseline(paths[0])
			if err != nil {
				return nil, err
			}
			final, err := prof.LoadFinal(paths[1])
			if err != nil {
				return nil, err
			}
			return gate.Prof(stdout, base, prof.PerCall(final.Phases)), nil
		}
	case "prof-baseline":
		out := fs.String("o", "", "output file (default stdout)")
		n, do = 1, func(paths []string) ([]gate.Finding, error) {
			final, err := prof.LoadFinal(paths[0])
			if err != nil {
				return nil, err
			}
			b := prof.PerCall(final.Phases)
			return nil, write(*out, stdout, stderr, b, len(b.Phases), "phases")
		}
	case "quality":
		title, do = gate.QualityTitle, func(paths []string) ([]gate.Finding, error) {
			base, cur, err := loadPair(gate.LoadQuality, paths)
			if err != nil {
				return nil, err
			}
			return confirmClean(stdout, gate.Quality(stdout, base, cur), len(cur.Records)), nil
		}
	case "serve":
		title, do = gate.QualityTitle, func(paths []string) ([]gate.Finding, error) {
			base, cur, err := loadPair(gate.LoadService, paths)
			if err != nil {
				return nil, err
			}
			return confirmClean(stdout, gate.Serve(stdout, base, cur), len(cur.Records)), nil
		}
	case "volume":
		title, do = gate.QualityTitle, func(paths []string) ([]gate.Finding, error) {
			base, cur, err := loadPair(gate.LoadVolume, paths)
			if err != nil {
				return nil, err
			}
			return confirmClean(stdout, gate.Volume(stdout, base, cur), 1), nil
		}
	default:
		fs.Usage()
		return 2
	}

	// Paths may precede the flags ("mdgate bench a.json b.json
	// -fail-threshold 35"); a bare "-" is the stdin path, not a flag.
	var paths []string
	rest := args[1:]
	for len(rest) > 0 && (rest[0] == "-" || !strings.HasPrefix(rest[0], "-")) {
		paths, rest = append(paths, rest[0]), rest[1:]
	}
	if err := fs.Parse(rest); err != nil {
		return 2
	}
	if paths = append(paths, fs.Args()...); len(paths) != n {
		fs.Usage()
		return 2
	}
	findings, err := do(paths)
	switch {
	case err == errUsage:
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "mdgate:", err)
		return 1
	}
	errs, warns := gate.Annotate(stdout, stderr, title, findings)
	if errs == 0 {
		return 0
	}
	if cmd == "prof" {
		fmt.Fprintf(stderr, "mdgate: %d phase(s) beyond the %d%% failure threshold (%d warning(s))\n", errs, gate.ProfFailPct, warns)
	}
	return 1
}

// loadPair loads the baseline and current paths of a two-file gate.
func loadPair[T any](load func(string) (*T, error), paths []string) (base, cur *T, err error) {
	if base, err = load(paths[0]); err != nil {
		return nil, nil, err
	}
	if cur, err = load(paths[1]); err != nil {
		return nil, nil, err
	}
	return base, cur, nil
}

// confirmClean confirms a record gate that found nothing and passes its
// findings through.
func confirmClean(w io.Writer, findings []gate.Finding, records int) []gate.Finding {
	if len(findings) == 0 {
		fmt.Fprintf(w, "mdgate: %d records within thresholds\n", records)
	}
	return findings
}

// write emits v as indented JSON to path (stdout when empty); a file
// is confirmed on stderr with its count of what.
func write(path string, stdout, stderr io.Writer, v any, count int, what string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if path == "" {
		_, err := stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "mdgate: wrote %d %s to %s\n", count, what, path)
	return nil
}
