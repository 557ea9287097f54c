package gate

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's parsed result.
type BenchResult struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// BenchFile is the BENCH_diag.json layout.
type BenchFile struct {
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

// ParseBench extracts benchmark result lines from `go test -bench` output.
// A result line is "BenchmarkName[-P] <iters> <value> ns/op [<value> B/op
// <value> allocs/op ...]"; everything else (pass/fail chatter, pkg lines)
// is ignored. Repeated runs of one name keep the last result. The -P
// GOMAXPROCS suffix is stripped, so baselines transfer between machines
// with different core counts.
func ParseBench(r io.Reader) (*BenchFile, error) {
	f := &BenchFile{Benchmarks: map[string]BenchResult{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := BenchResult{Iterations: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				ok = true
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			}
		}
		if ok {
			f.Benchmarks[stripProcs(fields[0])] = b
		}
	}
	return f, sc.Err()
}

// stripProcs removes the -<GOMAXPROCS> suffix go test appends to
// benchmark names ("BenchmarkDiagnose-8" → "BenchmarkDiagnose").
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// LoadBench reads a parsed benchmark file ("-" reads stdin).
func LoadBench(path string) (*BenchFile, error) {
	return load(path, func(f *BenchFile) error {
		if f.Benchmarks == nil {
			return errors.New("no benchmarks key")
		}
		return nil
	})
}

// BenchWarnPct is the ns/op growth percentage that warns.
const BenchWarnPct = 20

// BenchLimits are the limits the bench gate's callers choose: per-push
// CI, nightly and `make benchdiff` pass different values.
type BenchLimits struct {
	// FailPct is the ns/op growth percentage that fails (0 = never).
	FailPct float64
	// Alloc gates allocs/op and B/op, checked only where both sides
	// recorded -benchmem numbers.
	Alloc Limit
	// MissingFatal fails on a baseline benchmark absent from the current
	// run (nightly, where the full suite runs) instead of warning.
	MissingFatal bool
}

// Bench prints the per-benchmark ns/op delta table and gates ns/op
// (warn beyond BenchWarnPct, fail beyond FailPct), allocs/op and B/op.
// A baseline benchmark missing from the current run always annotates —
// a benchmark that stops running would otherwise pass every gate
// forever — as a warning, or an error under MissingFatal.
func Bench(w io.Writer, base, cur *BenchFile, lim BenchLimits) []Finding {
	timeLim := Limit{Warn: BenchWarnPct, Fail: lim.FailPct}
	var fs []Finding
	check := func(l Limit, n, unit string, b, c float64) (growth float64) {
		level, growth, limit := l.Check(b, c)
		if level != "" {
			fs = append(fs, regressed(level, n, n, unit, growth, limit, b, c))
		}
		return growth
	}
	fmt.Fprintf(w, "%-34s %14s %14s %9s\n", "benchmark", "base ns/op", "cur ns/op", "delta")
	walk(base.Benchmarks, cur.Benchmarks, func(n string, b, c BenchResult, inBase, inCur bool) {
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-34s %14.0f %14s %9s\n", n, b.NsPerOp, "—", "gone")
			level := Warning
			if lim.MissingFatal {
				level = Error
			}
			fs = append(fs, Finding{Level: level, Key: n, Message: fmt.Sprintf("baseline benchmark %s missing from current run", n)})
		case !inBase:
			fmt.Fprintf(w, "%-34s %14s %14.0f %9s\n", n, "—", c.NsPerOp, "new")
		default:
			growth := check(timeLim, n, "ns/op", b.NsPerOp, c.NsPerOp)
			fmt.Fprintf(w, "%-34s %14.0f %14.0f %+8.1f%%\n", n, b.NsPerOp, c.NsPerOp, growth)
			check(lim.Alloc, n, "allocs/op", float64(b.AllocsPerOp), float64(c.AllocsPerOp))
			check(lim.Alloc, n, "B/op", float64(b.BytesPerOp), float64(c.BytesPerOp))
		}
	})
	return fs
}

// regressed is a bench or profile growth finding on what (a benchmark,
// "phase <name> allocation").
func regressed(level, key, what, unit string, growth, limit, b, c float64) Finding {
	label := "threshold"
	if level == Error {
		label = "failure threshold"
	}
	return Finding{Level: level, Key: key, Message: fmt.Sprintf("%s regressed %.1f%% (%.0f → %.0f %s, %s %.0f%%)",
		what, growth, b, c, unit, label, limit)}
}

// Speedup gates a scaling pair within one result file: base ns/op ÷
// target ns/op must reach min. It prints the verdict line and returns an
// error finding when the ratio misses. A benchmark that is absent or has
// no timing is an error, not a failed gate: a scaling matrix that
// silently stopped producing one of its points must fail loudly, not
// pass vacuously.
func Speedup(w io.Writer, f *BenchFile, baseName, targetName string, min float64) ([]Finding, error) {
	base, ok := f.Benchmarks[baseName]
	if !ok || base.NsPerOp <= 0 {
		return nil, fmt.Errorf("speedup: benchmark %q missing from results", baseName)
	}
	target, ok := f.Benchmarks[targetName]
	if !ok || target.NsPerOp <= 0 {
		return nil, fmt.Errorf("speedup: benchmark %q missing from results", targetName)
	}
	ratio := base.NsPerOp / target.NsPerOp
	fmt.Fprintf(w, "speedup %s vs %s: %.2fx (minimum %.2fx)\n", targetName, baseName, ratio, min)
	if ratio >= min {
		return nil, nil
	}
	return []Finding{{Level: Error, Key: targetName, Message: fmt.Sprintf("%s is only %.2fx faster than %s (%.0f → %.0f ns/op), minimum %.2fx",
		targetName, ratio, baseName, base.NsPerOp, target.NsPerOp, min)}}, nil
}
