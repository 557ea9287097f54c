// mdvol is the volume-diagnosis CLI: it streams a JSONL datalog stream
// (one tested device per line — see internal/volume.Record) through the
// syndrome-fingerprint dedupe front into the parallel diagnosis engine,
// and emits the deterministic fleet aggregate (per-site Pareto tables,
// defect-class trends, dedupe-ratio stats) plus, optionally, one report
// line per device in input order.
//
// Usage:
//
//	mdgen -datalogs 10000 -workload b0300 -repeat 0.9 -o datalogs.jsonl.gz
//	mdvol -in datalogs.jsonl.gz -workload b0300 -j 8 \
//	      -reports-out reports.jsonl.gz -summary-out summary.json
//
// Memory stays bounded on arbitrarily long streams: the reader blocks
// when the worker pool is saturated (the CLI's backpressure), and only a
// window of devices is in flight at once. Per-device reports are
// byte-identical to running the engine on each datalog individually —
// cache hit or miss, at any -j — and the summary is byte-identical
// across runs and worker counts.
package main

import (
	"compress/gzip"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"multidiag/internal/cio"
	"multidiag/internal/exp"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/volume"
)

func main() {
	var (
		in          = flag.String("in", "", "datalog stream to ingest: JSONL path (.gz transparently decompressed), or - for stdin")
		workload    = flag.String("workload", "", "workload: a built-in name (c17, add16, b0300, …) or name=circuit.bench:patterns.txt")
		jobs        = flag.Int("j", 0, "concurrent diagnosis workers (0 = GOMAXPROCS)")
		cacheCap    = flag.Int("cache", 0, "fingerprint cache entries (0 = 16k default, -1 disables dedupe)")
		top         = flag.Int("top", 10, "ranked-candidate tail bound per report")
		trendBucket = flag.Int("trend-bucket", volume.DefaultTrendBucket, "trend granularity: devices per bucket (seconds per bucket when records carry timestamps)")
		paretoTop   = flag.Int("pareto-top", volume.DefaultParetoTop, "suspects per site in the Pareto tables")
		reportsOut  = flag.String("reports-out", "", "write one report line per device (input order) to `file` (.gz compresses)")
		summaryOut  = flag.String("summary-out", "", "write the fleet aggregate JSON to `file` (default stdout)")
		verbose     = flag.Bool("v", false, "log ingest statistics to stderr")
	)
	var inst prof.Flags
	inst.Register(flag.CommandLine)
	flag.Parse()
	if *in == "" || *workload == "" {
		fmt.Fprintln(os.Stderr, "mdvol: -in and -workload are required")
		os.Exit(2)
	}
	if err := run(inst, *in, *workload, *jobs, *cacheCap, *top, *trendBucket, *paretoTop, *reportsOut, *summaryOut, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "mdvol:", err)
		os.Exit(1)
	}
}

// run is the CLI body; it returns instead of exiting so deferred sink
// closes always execute (a .gz reports file must get its trailer even on
// a mid-stream error).
func run(inst prof.Flags, in, workloadSpec string, jobs, cacheCap, top, trendBucket, paretoTop int, reportsOut, summaryOut string, verbose bool) (err error) {
	tr, _, finish, err := inst.Setup("mdvol")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()

	name, c, pats, err := resolveWorkload(workloadSpec)
	if err != nil {
		return err
	}

	var reports io.Writer
	if reportsOut != "" {
		sink, serr := obs.CreateSink(reportsOut)
		if serr != nil {
			return serr
		}
		defer func() {
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
		}()
		reports = sink
	}

	ing, err := volume.NewIngester(volume.IngestConfig{
		Workload:    name,
		Circuit:     c,
		Patterns:    pats,
		Workers:     jobs,
		CacheCap:    cacheCap,
		Top:         top,
		TrendBucket: trendBucket,
		ParetoTop:   paretoTop,
		Trace:       tr,
		Reports:     reports,
	})
	if err != nil {
		return err
	}

	stream, closeIn, err := openStream(in)
	if err != nil {
		return err
	}
	defer closeIn()

	start := time.Now()
	summary, err := ing.Run(context.Background(), volume.NewRecordReader(stream))
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if verbose {
		reg := tr.Registry()
		fmt.Fprintf(os.Stderr, "mdvol: %d devices (%d failing), %d unique syndromes, dedupe ratio %.3f\n",
			summary.Devices, summary.Failing, summary.UniqueSyndromes, summary.DedupeRatio)
		fmt.Fprintf(os.Stderr, "mdvol: %d engine runs, %d deduped (%d coalesced), cache %d hits / %d misses / %d evictions\n",
			reg.Counter("volume.diagnosed").Value(), reg.Counter("volume.deduped").Value(),
			reg.Counter("volume.coalesced").Value(), reg.Counter("volume.cache_hits").Value(),
			reg.Counter("volume.cache_misses").Value(), reg.Counter("volume.cache_evictions").Value())
		rate := float64(summary.Devices) / elapsed.Seconds()
		fmt.Fprintf(os.Stderr, "mdvol: %.1f devices/s over %v\n", rate, elapsed.Round(time.Millisecond))
	}

	if summaryOut != "" {
		f, cerr := os.Create(summaryOut)
		if cerr != nil {
			return cerr
		}
		werr := volume.WriteSummary(f, summary)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}
	return volume.WriteSummary(os.Stdout, summary)
}

// openStream opens the input path: stdin for "-", transparently
// decompressing .gz files.
func openStream(path string) (io.Reader, func() error, error) {
	if path == "-" {
		return os.Stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, f.Close, nil
	}
	gz, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return gz, func() error {
		gerr := gz.Close()
		ferr := f.Close()
		if gerr != nil {
			return gerr
		}
		return ferr
	}, nil
}

// resolveWorkload parses the -workload value: a bare built-in name from
// the experiment suite's registry, or name=circuit.bench:patterns.txt
// loading external files (the mdserve convention).
func resolveWorkload(v string) (string, *netlist.Circuit, []sim.Pattern, error) {
	name, files, ok := strings.Cut(v, "=")
	if !ok {
		wl, err := exp.NamedWorkload(name)
		if err != nil {
			return "", nil, nil, err
		}
		return name, wl.Circuit, wl.Patterns, nil
	}
	circPath, patPath, ok := strings.Cut(files, ":")
	if !ok || name == "" {
		return "", nil, nil, fmt.Errorf("-workload %q: want name=circuit.bench:patterns.txt", v)
	}
	c, _, err := cio.LoadCircuit(circPath, false)
	if err != nil {
		return "", nil, nil, err
	}
	pf, err := os.Open(patPath)
	if err != nil {
		return "", nil, nil, err
	}
	pats, err := tester.ReadPatterns(pf)
	pf.Close()
	if err != nil {
		return "", nil, nil, err
	}
	return name, c, pats, nil
}
