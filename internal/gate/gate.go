// Package gate holds the regression gates that protect the paper's
// claims and the engine's speed: each compares a fresh measurement with a
// committed baseline and returns the threshold crossings as Findings.
//
//   - Bench and Speedup read `go test -bench` results (ParseBench):
//     ns/op, allocs/op and B/op drift, and a ratio between two
//     benchmarks of one run.
//   - Prof reads per-phase allocation budgets (prof.Baseline).
//   - Quality, Serve and Volume read the campaign quality records
//     (qrec.File), mdserve's service records (qrec.ServiceFile) and
//     volume fleet summaries (volume.Summary).
//
// Every gate prints its delta table to a writer and returns its
// findings; Annotate turns them into GitHub Actions annotations or
// stderr lines. Error findings fail the gate, warnings only annotate.
// Keys present on one side only are reported as "gone" or "new" rows and
// never fail, except a gone benchmark under BenchLimits.MissingFatal, so
// a baseline refresh and the change that caused it can land together.
package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// Finding levels.
const (
	Warning = "warning"
	Error   = "error"
)

// Finding is one threshold crossing.
type Finding struct {
	// Level is Error (fails the gate) or Warning (annotates only).
	Level string
	// Key names what regressed: a benchmark, a phase, a record key.
	Key string
	// Message is the human-readable description.
	Message string
}

// Limit is a regression threshold on one metric. Growth beyond Fail is
// an Error, beyond Warn a Warning; zero disables either. Growth is a
// percentage of the baseline value, or the absolute difference when Abs
// is set. Absolute growth below Floor never gates: tiny values flap run
// to run. For metrics where a drop is the regression, pass both values
// negated.
type Limit struct {
	Warn, Fail float64
	Abs        bool
	Floor      float64
}

// Check measures the growth base → cur (a percentage is 0 when base ≤ 0:
// there is nothing to grow from) and returns the level it crosses, ""
// within limits, with the limit crossed.
func (l Limit) Check(base, cur float64) (level string, growth, limit float64) {
	growth = cur - base
	if !l.Abs {
		growth = 0
		if base > 0 {
			growth = (cur - base) / base * 100
		}
	}
	switch {
	case cur-base < l.Floor: // within the noise floor
	case l.Fail > 0 && growth > l.Fail:
		return Error, growth, l.Fail
	case l.Warn > 0 && growth > l.Warn:
		return Warning, growth, l.Warn
	}
	return "", growth, 0
}

// Annotation titles, one per gate family ("<title> regression").
const (
	BenchTitle   = "benchmark"
	ProfTitle    = "profile"
	QualityTitle = "quality"
)

// Annotate prints each finding — inside a GitHub Actions workflow as an
// `::error title=<title> regression::` (or `::warning`) line on stdout,
// so the step is flagged in the UI, elsewhere as "ERROR: …" on stderr —
// and counts them by level.
func Annotate(stdout, stderr io.Writer, title string, fs []Finding) (errs, warns int) {
	actions := os.Getenv("GITHUB_ACTIONS") == "true"
	for _, f := range fs {
		if actions {
			fmt.Fprintf(stdout, "::%s title=%s regression::%s\n", f.Level, title, f.Message)
		} else {
			fmt.Fprintf(stderr, "%s: %s\n", strings.ToUpper(f.Level), f.Message)
		}
		if f.Level == Error {
			errs++
		} else {
			warns++
		}
	}
	return errs, warns
}

// walk calls row once per key in the sorted union of base's and cur's
// keys. A key missing from one side arrives with that side's zero value
// and its in-flag false: !inCur is a "gone" row, !inBase a "new" one.
func walk[V any](base, cur map[string]V, row func(key string, b, c V, inBase, inCur bool)) {
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		if _, dup := base[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		row(k, b, c, inBase, inCur)
	}
}

// errorsFirst stably moves error findings ahead of warnings.
func errorsFirst(fs []Finding) []Finding {
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Level == Error && fs[j].Level != Error })
	return fs
}

// load decodes the JSON document at path ("-" reads stdin) and checks
// its shape with valid; errors name the path.
func load[T any](path string, valid func(*T) error) (*T, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	v := new(T)
	if err := json.NewDecoder(r).Decode(v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := valid(v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}
