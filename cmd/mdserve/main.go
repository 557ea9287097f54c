// mdserve is the long-running diagnosis service: it loads circuits and
// test sets once at startup into a workload registry (with a warm shared
// cone cache per workload) and serves diagnosis requests over HTTP/JSON,
// coalescing concurrent same-workload requests into shared fault-parallel
// scoring passes. Reports are bit-identical to mddiag for the same
// (circuit, patterns, response).
//
// Usage:
//
//	mdserve -addr :8080 -workload c17 -workload b0300
//	mdserve -addr :8080 -workload mychip=design.bench:patterns.txt
//
// Endpoints:
//
//	POST /v1/diagnose        one device response → ranked candidate report
//	                         (?explain=1 attaches the flight-recorder narrative)
//	POST /v1/diagnose/batch  several devices of one workload in one call
//	POST /v1/ingest          stream JSONL datalog records through the
//	                         syndrome-fingerprint dedupe front (gzip ok)
//	GET  /v1/volume/summary  deterministic fleet aggregate per workload
//	GET  /v1/workloads       the registry: names, sizes, queue depths
//	GET  /healthz            liveness (always 200 while the process runs)
//	GET  /readyz             readiness (503 once draining)
//	GET  /metrics            Prometheus text format (admission, batching,
//	                         latency, cone-cache and core-engine metrics)
//	GET  /debug/trace        tail-captured request span trees as NDJSON
//	                         (mdtrace reads this body or -trace-spans-out)
//	GET  /debug/incidents    index of spooled incident bundles (404 until
//	                         -incident-dir arms the observatory)
//
// Service knobs: -max-inflight, -queue-depth, -max-batch, -max-wait,
// -request-timeout, -j, -trace-sample, -trace-capture, -trace-spans-out,
// -incident-dir, -incident-max-bundles, -incident-max-bytes,
// -incident-min-interval (see README "Serving" and "Incidents & replay"). On SIGTERM/SIGINT the
// server drains gracefully: admission stops (429/503), queued and
// in-flight requests finish (bounded by -drain-timeout), observability
// sinks flush, and -service-record-out captures the run's serving
// behaviour for mdtrend compare-serve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"multidiag/internal/cio"
	"multidiag/internal/exp"
	"multidiag/internal/obs"
	"multidiag/internal/prof"
	"multidiag/internal/qrec"
	"multidiag/internal/serve"
	"multidiag/internal/tester"
)

// workloadFlags collects repeated -workload values.
type workloadFlags []string

func (w *workloadFlags) String() string { return strings.Join(*w, ",") }
func (w *workloadFlags) Set(v string) error {
	*w = append(*w, v)
	return nil
}

func main() {
	var workloads workloadFlags
	var (
		addr           = flag.String("addr", "127.0.0.1:8080", "listen address")
		maxInflight    = flag.Int("max-inflight", 64, "admitted-but-unfinished request cap (past it: 429)")
		maxBytes       = flag.Int64("max-inflight-bytes", 64<<20, "summed in-flight request body byte cap (past it: 429)")
		queueDepth     = flag.Int("queue-depth", 32, "per-workload admission queue capacity (past it: 429)")
		maxBatch       = flag.Int("max-batch", 8, "max requests coalesced into one scoring pass")
		maxWait        = flag.Duration("max-wait", 2*time.Millisecond, "max linger for batch stragglers (only under load)")
		requestTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (a request's timeout_ms may lower it)")
		jobs           = flag.Int("j", 0, "fault-parallel workers per scoring pass (0 = GOMAXPROCS)")
		drainTimeout   = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
		recordOut      = flag.String("service-record-out", "", "write a qrec service record (for mdtrend compare-serve) to `file` on shutdown")
		recordLabel    = flag.String("service-record-label", "serve", "label for the service record")
		traceSample    = flag.Float64("trace-sample", 0.1, "tail-sampler retention probability for routine request traces (shed/504/panic/slow always kept); negative disables request tracing")
		traceCapacity  = flag.Int("trace-capture", 64, "capacity of EACH /debug/trace retention ring (flagged + sampled)")
		traceOut       = flag.String("trace-spans-out", "", "append every retained span tree as JSONL to `file` (.gz compresses; mdtrace reads it)")
		incidentDir    = flag.String("incident-dir", "", "spool anomaly-triggered debug bundles to `dir` (mdreplay re-runs them offline); empty disables")
		incidentMax    = flag.Int("incident-max-bundles", 32, "max bundles retained in -incident-dir (overwrite-oldest)")
		incidentBytes  = flag.Int64("incident-max-bytes", 64<<20, "max summed bundle bytes in -incident-dir (overwrite-oldest)")
		incidentEvery  = flag.Duration("incident-min-interval", time.Second, "min interval between captures per trigger kind (0 = unlimited)")
		volumeCache    = flag.Int("volume-cache", 0, "fingerprint cache entries per workload for /v1/ingest dedupe (0 = 16k default, -1 disables)")
		volumeBucket   = flag.Int("volume-trend-bucket", 0, "ingest trend granularity: devices per bucket, or seconds when records carry timestamps (0 = default)")
		verbose        = flag.Bool("v", false, "log request counters on shutdown")
	)
	flag.Var(&workloads, "workload", "workload to register: a built-in name (c17, add16, b0300, …) or name=circuit.bench:patterns.txt; repeatable")
	var inst prof.Flags
	inst.Register(flag.CommandLine)
	flag.Parse()
	if len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "mdserve: at least one -workload is required")
		os.Exit(2)
	}
	if err := run(inst, workloads, *addr, serve.Config{
		MaxInflight:         *maxInflight,
		MaxInflightBytes:    *maxBytes,
		QueueDepth:          *queueDepth,
		MaxBatch:            *maxBatch,
		MaxWait:             *maxWait,
		RequestTimeout:      *requestTimeout,
		Workers:             *jobs,
		TraceSample:         *traceSample,
		TraceCapacity:       *traceCapacity,
		IncidentDir:         *incidentDir,
		IncidentMaxBundles:  *incidentMax,
		IncidentMaxBytes:    *incidentBytes,
		IncidentMinInterval: *incidentEvery,
		VolumeCacheCap:      *volumeCache,
		VolumeTrendBucket:   *volumeBucket,
	}, *traceOut, *drainTimeout, *recordOut, *recordLabel, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "mdserve:", err)
		os.Exit(1)
	}
}

// run is the daemon body. It returns instead of exiting so the deferred
// finish always executes — the trace .gz must get its trailer even when
// startup or serving fails.
func run(inst prof.Flags, workloads []string, addr string, cfg serve.Config, traceOut string, drainTimeout time.Duration, recordOut, recordLabel string, verbose bool) (err error) {
	tr, _, finish, err := inst.Setup("mdserve")
	if err != nil {
		return err
	}
	defer func() {
		if e := finish(); err == nil {
			err = e
		}
	}()
	cfg.Trace = tr

	if traceOut != "" {
		sink, serr := obs.CreateSink(traceOut)
		if serr != nil {
			return serr
		}
		// Closed after drain so the .gz trailer lands even on error exits.
		defer func() {
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
		}()
		cfg.TraceSink = sink
	}

	specs := make([]serve.WorkloadSpec, 0, len(workloads))
	for _, w := range workloads {
		spec, err := resolveWorkload(w)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mdserve: workload %s: %d gates, %d POs, %d patterns\n",
			spec.Name, spec.Circuit.NumGates(), len(spec.Circuit.POs), len(spec.Patterns))
		specs = append(specs, spec)
	}
	srv, err := serve.New(cfg, specs)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The smoke script greps for this line to learn the bound port.
	fmt.Printf("mdserve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mdserve: draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Order: stop admitting and finish queued work first (Drain), then
	// close the listener and idle connections (Shutdown).
	if derr := srv.Drain(dctx); derr != nil {
		fmt.Fprintf(os.Stderr, "mdserve: drain incomplete: %v\n", derr)
	}
	if serr := hs.Shutdown(dctx); serr != nil && !errors.Is(serr, context.DeadlineExceeded) {
		err = serr
	}
	rec := srv.ServiceRecord(recordLabel)
	if verbose {
		fmt.Fprintf(os.Stderr, "mdserve: served %d requests, shed %d, %d batches (mean %.2f), p95 %.2fms\n",
			rec.Requests, rec.Shed, rec.Batches, rec.MeanBatch, rec.ServiceP95MS)
	}
	if recordOut != "" {
		f := &qrec.ServiceFile{Schema: qrec.ServiceSchema}
		f.AddService(rec)
		if werr := qrec.WriteService(recordOut, f); err == nil {
			err = werr
		}
	}
	fmt.Fprintln(os.Stderr, "mdserve: drained")
	return err
}

// resolveWorkload parses one -workload value: a bare built-in name
// resolved through the experiment suite's registry, or
// name=circuit.bench:patterns.txt loading external files.
func resolveWorkload(v string) (serve.WorkloadSpec, error) {
	name, files, ok := strings.Cut(v, "=")
	if !ok {
		wl, err := exp.NamedWorkload(name)
		if err != nil {
			return serve.WorkloadSpec{}, err
		}
		return serve.WorkloadSpec{Name: name, Circuit: wl.Circuit, Patterns: wl.Patterns}, nil
	}
	circPath, patPath, ok := strings.Cut(files, ":")
	if !ok || name == "" {
		return serve.WorkloadSpec{}, fmt.Errorf("-workload %q: want name=circuit.bench:patterns.txt", v)
	}
	c, _, err := cio.LoadCircuit(circPath, false)
	if err != nil {
		return serve.WorkloadSpec{}, err
	}
	pf, err := os.Open(patPath)
	if err != nil {
		return serve.WorkloadSpec{}, err
	}
	pats, err := tester.ReadPatterns(pf)
	pf.Close()
	if err != nil {
		return serve.WorkloadSpec{}, err
	}
	return serve.WorkloadSpec{Name: name, Circuit: c, Patterns: pats}, nil
}
