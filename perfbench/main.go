// perfbench is the repository benchmark: datalog bytes in to report
// bytes out through the public entry points of mddiag (cli-b1000),
// mdserve (serve-b1000) and mdvol (vol-b0300), with every report checked
// byte for byte against a sequential, uncached core.Diagnose reference.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload cli-b1000 --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --spec > BENCHMARK.json
//	bash perfbench/run.sh --describe
//
// --trace 0 measures the end-to-end metrics with the benchmark's tracing
// off. --trace 1 runs the workload twice, untraced then traced, and
// reports the per-layer ledger: the benchmark's own spans around each
// public call, the engine's phase spans joined into the same trees, the
// engine's counters, and the cost of tracing. The traced trees are
// written as mdtrace/v1 JSONL (--trace-out) for cmd/mdtrace.
//
// Every line but the last is for people; the last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"multidiag/internal/serve"
	"multidiag/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's inputs and settings, shared by the passes.
type bench struct {
	workload string
	seed     int64
	dir      string
	man      *manifest
	plan     plan
	traceOut string

	// refs and vrefs cache reference reports across the passes of a
	// traced invocation (references are deterministic).
	refs  *refCache
	vrefs []*volRef

	// tamper, when set, rewrites a program output before it is checked —
	// tests use it to prove that a corrupted report counts as failed.
	tamper func(device int, out []byte) []byte
	// serveConfig is the base server configuration (the zero value is the
	// default mdserve configuration; tests use it to force sheds).
	serveConfig serve.Config
}

// passResult is what one pass over a workload measured.
type passResult struct {
	attempted, failed int
	metrics           map[string]float64
	// notes are printed beside the metrics: sample counts, the tail
	// percentile, the latency limit.
	notes map[string]any
	// trees are the traced pass's span trees (mdtrace/v1).
	trees []*trace.TreeRecord
}

func newPass() *passResult {
	return &passResult{metrics: map[string]float64{}, notes: map[string]any{}}
}

// result is the benchmark's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: cli-b1000, serve-b1000 or vol-b0300")
		seed     = fs.Int64("seed", 1, "input seed: devices, arrival schedule and stream all derive from it")
		seconds  = fs.Float64("seconds", runSeconds, "measurement window")
		traced   = fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer ledger from a traced run")
		traceOut = fs.String("trace-out", "", "mdtrace/v1 JSONL of the traced run (default <data>/traces/<workload>-s<seed>.jsonl)")
		data     = fs.String("data", filepath.Join(".bench_build", "perfbench"), "directory for generated inputs and traces")
		short    = fs.Bool("short", false, "a handful of devices per workload (smoke test)")
		spec     = fs.Bool("spec", false, "print BENCHMARK.json and exit")
		desc     = fs.Bool("describe", false, "print every workload and metric with its meaning and exit")
		genDir   = fs.String("gen", "", "internal: generate inputs into this directory and exit")
		planKey  = fs.String("plan", "", "internal: input plan for -gen")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		return exitOn(writeSpec(stdout), stderr)
	case *desc:
		return exitOn(describe(stdout), stderr)
	case *genDir != "":
		p, err := parsePlanKey(*planKey)
		if err != nil {
			return exitOn(err, stderr)
		}
		return exitOn(generate(*genDir, *workload, *seed, p), stderr)
	}
	if _, ok := findWorkload(*workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	b, err := newBench(*workload, *seed, *seconds, *short, *traced == 1, *data, *traceOut)
	if err != nil {
		return exitOn(err, stderr)
	}
	res, err := b.measure(*traced == 1, stdout)
	if err != nil {
		return exitOn(err, stderr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return exitOn(err, stderr)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// newBench sizes the run and makes sure its inputs exist.
func newBench(workload string, seed int64, seconds float64, short, traced bool, data, traceOut string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, plan: makePlan(workload, seconds, short), refs: newRefCache()}
	if traced {
		b.plan.setups = 1 // setup_s is an end-to-end metric, not reported here
		b.traceOut = traceOut
		if b.traceOut == "" {
			b.traceOut = filepath.Join(data, "traces", fmt.Sprintf("%s-s%d.jsonl", workload, seed))
		}
	}
	var err error
	b.dir, b.man, err = ensureInputs(data, workload, seed, b.plan)
	return b, err
}

func exitOn(err error, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// pass runs the workload once.
func (b *bench) pass(traced bool) (*passResult, error) {
	switch b.workload {
	case "cli-b1000":
		return b.runCLI(traced)
	case "serve-b1000":
		return b.runServe(traced)
	case "vol-b0300":
		return b.runVol(traced)
	}
	return nil, fmt.Errorf("unknown workload %q", b.workload)
}

// measure runs the untraced pass (and, for --trace 1, the traced pass),
// prints the human-readable report and returns the result line.
func (b *bench) measure(traced bool, out io.Writer) (*result, error) {
	base, err := b.pass(false)
	if err != nil {
		return nil, err
	}
	defs, p := endToEnd, base
	attempted, failed := base.attempted, base.failed
	if traced {
		tp, err := b.pass(true)
		if err != nil {
			return nil, err
		}
		attempted += tp.attempted
		failed += tp.failed
		tp.metrics["bench.trace_overhead_pct"] = traceOverhead(b.workload, base, tp)
		if err := writeTrees(b.traceOut, tp.trees); err != nil {
			return nil, err
		}
		tp.notes["trace_out"] = b.traceOut
		tp.notes["trace_trees"] = len(tp.trees)
		defs, p = perLayer, tp
	}
	run := map[string]any{
		"workload": b.workload, "seed": b.seed, "trace": traced,
		"machine": machineShape(), "attempted": attempted, "failed": failed,
	}
	for k, v := range p.notes {
		run[k] = v
	}
	if traced {
		for k, v := range base.notes {
			if _, ok := run[k]; !ok {
				run["untraced."+k] = v
			}
		}
	}
	rb, err := json.Marshal(run)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench run %s\n", rb)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v, ok := p.metrics[m.Name]
		shown := fmt.Sprintf("%.6g", v)
		if !ok {
			shown = "n/a (layer not on this workload's path; reported as 0)"
		}
		fmt.Fprintf(out, "perfbench metric %-34s %14s %s\n", m.Name, shown, m.Unit)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(out, "perfbench metric %-34s %14.6g ratio\n", "failed_ratio", float64(failed)/float64(max(attempted, 1)))
	if extra := unknownMetrics(p.metrics, defs); len(extra) > 0 {
		return nil, fmt.Errorf("internal: metrics %v are not declared", extra)
	}
	if attempted == 0 {
		return nil, errors.New("no device was attempted")
	}
	return res, nil
}

// traceOverhead is the traced pass's cost against the untraced one, in
// percent: latency_p50_ms for cli and serve, devices_per_s for vol.
func traceOverhead(workload string, base, traced *passResult) float64 {
	if workload == "vol-b0300" {
		b, t := base.metrics["devices_per_s"], traced.metrics["devices_per_s"]
		if t == 0 {
			return 0
		}
		return 100 * (b/t - 1)
	}
	b, t := base.metrics["latency_p50_ms"], traced.metrics["latency_p50_ms"]
	if b == 0 {
		return 0
	}
	return 100 * (t/b - 1)
}

// unknownMetrics lists measured metrics that are neither in defs nor an
// end-to-end metric (a traced pass measures both kinds).
func unknownMetrics(got map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, m := range append(append([]metricDef{}, defs...), endToEnd...) {
		known[m.Name] = true
	}
	var out []string
	for name := range got {
		if !known[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// writeTrees writes the traced pass's trees as mdtrace/v1 JSONL.
func writeTrees(path string, trees []*trace.TreeRecord) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	for _, t := range trees {
		if err := t.WriteJSONL(f); err != nil {
			return err
		}
	}
	return nil
}
