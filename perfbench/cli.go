package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"multidiag/internal/cio"
	"multidiag/internal/core"
	"multidiag/internal/obs"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// cli-b1000: the cold mddiag path in a closed loop. Each device loads the
// circuit, patterns and datalog from their files, diagnoses with the
// default worker pool and no cache or shared simulator, and renders the
// text report — exactly what one mddiag invocation does.

// cliCall is the timing of one device's public calls.
type cliCall struct {
	load, pats, dlog, diag, write time.Duration
	allocBytes                    uint64
}

// cliDevice runs the mddiag path for one device. With a tree, the
// benchmark records a span around each public call and the engine's
// phase spans join the tree under the core.DiagnoseCtx span; tr receives
// the engine's counters.
func cliDevice(ctx context.Context, circuitPath, patternsPath, datalogPath string, tree *trace.Tree, tr *obs.Trace) ([]byte, cliCall, error) {
	var call cliCall
	root := tree.Start("bench.device")
	defer root.End()

	sp := root.Start("cio.LoadCircuit")
	c, _, err := cio.LoadCircuit(circuitPath, false)
	call.load = sp.End()
	if err != nil {
		return nil, call, err
	}

	sp = root.Start("tester.ReadPatterns")
	pf, err := os.Open(patternsPath)
	if err != nil {
		return nil, call, err
	}
	pats, err := tester.ReadPatterns(pf)
	pf.Close()
	call.pats = sp.End()
	if err != nil {
		return nil, call, err
	}

	sp = root.Start("tester.ReadDatalog")
	df, err := os.Open(datalogPath)
	if err != nil {
		return nil, call, err
	}
	log, err := tester.ReadDatalog(df)
	df.Close()
	call.dlog = sp.End()
	if err != nil {
		return nil, call, err
	}

	sp = root.Start("core.DiagnoseCtx")
	var a0 uint64
	if tree != nil {
		a0 = heapAllocBytes()
		ctx = trace.WithSpan(trace.WithTree(ctx, tree), sp)
	}
	res, err := core.DiagnoseCtx(ctx, c, pats, log, core.Config{Trace: tr})
	if tree != nil {
		call.allocBytes = heapAllocBytes() - a0
	}
	call.diag = sp.End()
	if err != nil {
		return nil, call, err
	}

	sp = root.Start("core.WriteReport")
	var out bytes.Buffer
	err = core.WriteReport(&out, c, res, len(log.FailingPatterns()), topN)
	call.write = sp.End()
	return out.Bytes(), call, err
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (b *bench) runCLI(traced bool) (*passResult, error) {
	p := newPass()
	circuitPath := filepath.Join(b.dir, b.man.Circuit)
	patternsPath := filepath.Join(b.dir, b.man.Patterns)
	datalog := func(i int) string { return filepath.Join(b.dir, b.man.Devices[i].Datalog) }
	ctx := context.Background()

	// Set-up is the warm-up devices (the cli path has nothing else to load
	// ahead of the first device); repeated for a stable median.
	var setups []float64
	for k := 0; k < b.plan.setups; k++ {
		t0 := time.Now()
		for w := 0; w < b.plan.warm; w++ {
			if _, _, err := cliDevice(ctx, circuitPath, patternsPath, datalog(w), nil, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()

	var tr *obs.Trace
	if traced {
		tr = obs.New(b.workload)
	}
	type sample struct {
		dev    int
		lat    time.Duration
		report []byte
		err    error
		call   cliCall
		tree   *trace.Tree
	}
	var samples []sample
	u0 := readUsage()
	start := time.Now()
	deadline := start.Add(time.Duration(b.plan.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		dev := b.plan.warm + i%b.plan.devices
		var tree *trace.Tree
		if traced {
			tree = trace.NewTree(trace.TraceID{})
			tree.SetAttr("workload", b.workload)
		}
		t0 := time.Now()
		report, call, err := cliDevice(ctx, circuitPath, patternsPath, datalog(dev), tree, tr)
		samples = append(samples, sample{dev: dev, lat: time.Since(t0), report: report, err: err, call: call, tree: tree})
	}
	wall := time.Since(start)
	u1 := readUsage()

	// The report check and the quality metrics (untimed).
	judged := make([]int, 0, b.plan.judged)
	for i := 0; i < b.plan.judged && i < b.plan.devices; i++ {
		judged = append(judged, b.plan.warm+i)
	}
	idx := append([]int(nil), judged...)
	for _, s := range samples {
		idx = append(idx, s.dev)
	}
	refs, err := b.refs.devices(b, idx)
	if err != nil {
		return nil, err
	}
	var lats []float64
	correct := 0
	for i, s := range samples {
		p.attempted++
		lats = append(lats, ms(s.lat))
		out := s.report
		if b.tamper != nil {
			out = b.tamper(i, out)
		}
		if s.err != nil || !refs[s.dev].matches(stripElapsed(out), refs[s.dev].text) {
			p.failed++
			continue
		}
		correct++
	}
	var q quality
	for _, i := range judged {
		q.add(b.man.Devices[i].Defects, refs[i].res)
	}
	q.into(p)

	n := float64(len(samples))
	t := tailOf(lats)
	p.metrics["setup_s"] = median(setups)
	p.metrics["latency_p50_ms"] = median(lats)
	p.metrics["latency_tail_ms"] = t.Value
	p.metrics["devices_per_s"] = float64(correct) / wall.Seconds()
	p.metrics["cpu_ms_per_device"] = ms(u1.cpu-u0.cpu) / n
	p.metrics["peak_rss_mb"] = float64(u1.maxRSS) / 1024
	p.notes["samples"] = len(samples)
	p.notes["distinct_devices"] = min(len(samples), b.plan.devices)
	p.notes["tail_percentile"] = t.Percentile
	p.notes["wall_s"] = wall.Seconds()
	p.notes["setups"] = len(setups)
	if !traced {
		return p, nil
	}

	var load, pats, dlog, diag, write []float64
	var alloc uint64
	led := newLedger()
	for _, s := range samples {
		load = append(load, ms(s.call.load))
		pats = append(pats, ms(s.call.pats))
		dlog = append(dlog, ms(s.call.dlog))
		diag = append(diag, ms(s.call.diag))
		write = append(write, ms(s.call.write))
		alloc += s.call.allocBytes
		rec := s.tree.Record()
		led.addTree(rec)
		p.trees = append(p.trees, rec)
	}
	p.metrics["cio.load_circuit_ms"] = mean(load)
	p.metrics["tester.read_patterns_ms"] = mean(pats)
	p.metrics["tester.read_datalog_ms"] = mean(dlog)
	p.metrics["core.diagnose_ms"] = mean(diag)
	p.metrics["core.write_report_ms"] = mean(write)
	p.metrics["core.alloc_kb_per_device"] = float64(alloc) / 1024 / n
	led.engineMetrics(p, len(samples))
	countersSince(tr.Registry(), nil).engineCounters(p, len(samples))
	return p, nil
}
