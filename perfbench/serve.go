package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"multidiag/internal/cio"
	"multidiag/internal/obs"
	"multidiag/internal/serve"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// serve-b1000: open-loop traffic against an in-process serve.New in its
// default configuration, over loopback with at most nproc client
// connections. Request i is due at a seeded arrival time; its latency
// runs from that due time to the last response byte, so a stall that
// delays later sends is charged to them.

// serveReq is one scheduled request.
type serveReq struct {
	at      time.Duration // due time from the schedule start
	devices []int
	path    string
	body    []byte
}

// schedule draws the timed requests at p.rate: request i is due at a
// seeded uniform offset inside the i-th 1/rate slot of the window, and one
// in serveBatchEvery of them — at seeded positions — is a batch. Arrivals
// are random and can nearly coincide, so queue wait shows in the tail,
// but unlike a Poisson process no run is dominated by a chance burst.
func schedule(seed int64, p plan, firstDevice int, datalogs func(i int) string) ([]serveReq, error) {
	n := p.serveRequests()
	r := rand.New(rand.NewSource(mix(seed, -2, 0)))
	at := make([]float64, n)
	for i := range at {
		at[i] = (float64(i) + r.Float64()) / p.rate
	}
	batch := make([]bool, n)
	for _, i := range r.Perm(n)[:n/serveBatchEvery] {
		batch[i] = true
	}
	reqs := make([]serveReq, n)
	dev := firstDevice
	for i := range reqs {
		k := 1
		if batch[i] {
			k = serveBatchDevices
		}
		var devs []int
		for j := 0; j < k; j++ {
			devs = append(devs, dev)
			dev++
		}
		rq, err := newServeReq(devs, datalogs)
		if err != nil {
			return nil, err
		}
		rq.at = time.Duration(at[i] * float64(time.Second))
		reqs[i] = rq
	}
	return reqs, nil
}

// newServeReq builds a POST /v1/diagnose (one device) or
// /v1/diagnose/batch body carrying the datalogs in tester text.
func newServeReq(devs []int, datalogs func(i int) string) (serveReq, error) {
	text := make([]string, len(devs))
	for j, d := range devs {
		b, err := os.ReadFile(datalogs(d))
		if err != nil {
			return serveReq{}, err
		}
		text[j] = string(b)
	}
	rq := serveReq{devices: devs}
	var err error
	if len(devs) == 1 {
		rq.path = "/v1/diagnose"
		rq.body, err = json.Marshal(serve.DiagnoseRequest{Workload: "b1000", Datalog: text[0]})
	} else {
		br := serve.BatchRequest{Workload: "b1000"}
		for _, t := range text {
			br.Devices = append(br.Devices, serve.DeviceRequest{Datalog: t})
		}
		rq.path = "/v1/diagnose/batch"
		rq.body, err = json.Marshal(br)
	}
	return rq, err
}

// serveStack is one running server with its listener and client.
type serveStack struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
	// loadCircuit and readPatterns time the input load of the set-up.
	loadCircuit, readPatterns time.Duration
}

// startServe loads the workload the way mdserve's name=circuit:patterns
// form does, builds the server and brings up a loopback listener.
func (b *bench) startServe(cfg serve.Config) (*serveStack, error) {
	st := &serveStack{served: make(chan error, 1)}
	t0 := time.Now()
	c, _, err := cio.LoadCircuit(filepath.Join(b.dir, b.man.Circuit), false)
	if err != nil {
		return nil, err
	}
	st.loadCircuit = time.Since(t0)
	t0 = time.Now()
	f, err := os.Open(filepath.Join(b.dir, b.man.Patterns))
	if err != nil {
		return nil, err
	}
	pats, err := tester.ReadPatterns(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	st.readPatterns = time.Since(t0)
	st.srv, err = serve.New(cfg, []serve.WorkloadSpec{{Name: c.Name, Circuit: c, Patterns: pats}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Drain(context.Background())
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() { st.served <- st.hs.Serve(ln) }()
	conns := runtime.GOMAXPROCS(0)
	st.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return st, nil
}

// close drains the server, stops the listener and waits for it.
func (st *serveStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := st.srv.Drain(ctx)
	serr := st.hs.Shutdown(ctx)
	err := <-st.served
	st.client.CloseIdleConnections()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	return errors.Join(derr, serr, err)
}

// reqOutcome is one request's client-side measurement.
type reqOutcome struct {
	status   int
	body     []byte
	err      error
	lag      time.Duration // dispatcher send time − due time
	connWait time.Duration // due time → a client connection picked it up
	request  time.Duration // request written → response read
	latency  time.Duration // due time → response read
	tree     *trace.Tree
}

// post sends one request and reads the whole response.
func (st *serveStack) post(rq serveReq, tree *trace.Tree, parent trace.Span) reqOutcome {
	var o reqOutcome
	req, err := http.NewRequest(http.MethodPost, st.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	sp := parent.Start("http.roundtrip")
	if tree != nil {
		req.Header.Set("traceparent", trace.Traceparent(tree.TraceID(), sp.ID()))
	}
	t0 := time.Now()
	resp, err := st.client.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		o.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.request = time.Since(t0)
	sp.End()
	o.err = err
	return o
}

// lockedBuffer is the server's trace sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) take() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]byte(nil), l.buf.Bytes()...)
	l.buf.Reset()
	return out
}

func (b *bench) runServe(traced bool) (*passResult, error) {
	p := newPass()
	datalogs := func(i int) string { return filepath.Join(b.dir, b.man.Devices[i].Datalog) }
	// Request bodies are generated input: built before any timing. The
	// warm-up sends single requests, then its last serveBatchDevices
	// devices as one batch, so both endpoints are warm.
	singles := b.plan.warm
	if singles > serveBatchDevices {
		singles -= serveBatchDevices
	}
	var warm []serveReq
	for w := 0; w < b.plan.warm; {
		devs := []int{w}
		if w == singles {
			devs = nil
			for ; w < b.plan.warm; w++ {
				devs = append(devs, w)
			}
		} else {
			w++
		}
		rq, err := newServeReq(devs, datalogs)
		if err != nil {
			return nil, err
		}
		warm = append(warm, rq)
	}
	reqs, err := schedule(b.seed, b.plan, b.plan.warm, datalogs)
	if err != nil {
		return nil, err
	}

	cfg := b.serveConfig
	var (
		sink lockedBuffer
		tr   *obs.Trace
	)
	if traced {
		tr = obs.New(b.workload)
		cfg.Trace, cfg.TraceSample, cfg.TraceSink = tr, 1, &sink
	}

	var (
		st     *serveStack
		setups []float64
	)
	for k := 0; k < b.plan.setups; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		st, err = b.startServe(cfg)
		if err != nil {
			return nil, err
		}
		for _, rq := range warm {
			if o := st.post(rq, nil, trace.Span{}); o.err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", o.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	sink.take() // warm-up trees are not part of the ledger
	var before map[string]int64
	if traced {
		before = tr.Registry().Snapshot()
	}
	runtime.GC()

	outcomes := b.drive(st, reqs, traced)
	wall := outcomes.wall

	// The report check (untimed).
	var all []int
	for _, rq := range reqs {
		all = append(all, rq.devices...)
	}
	refs, err := b.refs.devices(b, all)
	if err != nil {
		return nil, err
	}
	type devOutcome struct {
		ok     bool
		status int
		rep    *serve.Report
		req    int
	}
	var devs []devOutcome
	var lats, reqMS, connWait []float64
	var lagMax time.Duration
	for i, rq := range reqs {
		o := outcomes.reqs[i]
		reqMS = append(reqMS, ms(o.request))
		connWait = append(connWait, ms(o.connWait))
		lagMax = max(lagMax, o.lag)
		body := o.body
		if b.tamper != nil {
			body = b.tamper(rq.devices[0], body)
		}
		lats = append(lats, ms(o.latency))
		for j, d := range rq.devices {
			dv := devOutcome{status: o.status, req: i}
			if o.err == nil && o.status == http.StatusOK {
				dv.status, dv.rep = decodeReport(body, len(rq.devices) > 1, j)
			}
			if dv.rep != nil {
				got, err := normalizeServe(cloneReport(dv.rep))
				dv.ok = err == nil && refs[d].matches(got, refs[d].json)
			}
			devs = append(devs, dv)
		}
	}
	valid, shed := 0, 0
	for _, dv := range devs {
		p.attempted++
		if !dv.ok {
			p.failed++
		} else if outcomes.reqs[dv.req].latency <= serveLatencyLimit {
			valid++
		}
		if dv.status == http.StatusTooManyRequests {
			shed++
		}
	}
	u := outcomes.u1
	t := tailOf(lats)
	var q quality
	for i := 0; i < b.plan.judged && i < len(all); i++ {
		q.add(b.man.Devices[all[i]].Defects, refs[all[i]].res)
	}
	q.into(p)
	p.metrics["setup_s"] = median(setups)
	p.metrics["latency_p50_ms"] = median(lats)
	p.metrics["latency_tail_ms"] = t.Value
	p.metrics["devices_per_s"] = float64(valid) / wall.Seconds()
	p.metrics["cpu_ms_per_device"] = ms(u.cpu-outcomes.u0.cpu) / float64(len(devs))
	p.metrics["peak_rss_mb"] = float64(u.maxRSS) / 1024
	p.notes["samples"] = len(lats)
	p.notes["requests"] = len(reqs)
	p.notes["tail_percentile"] = t.Percentile
	p.notes["latency_limit_ms"] = ms(serveLatencyLimit)
	p.notes["rate_rps"] = b.plan.rate
	p.notes["wall_s"] = wall.Seconds()
	p.notes["setups"] = len(setups)
	if !traced {
		return p, nil
	}

	// Per-layer: reports carry the engine time, queue wait and batch size;
	// the server's trees (every request kept) carry the phase spans.
	var diag, qwait, batch, overhead []float64
	for _, dv := range devs {
		if dv.rep == nil {
			continue
		}
		diag = append(diag, dv.rep.ElapsedMS)
		qwait = append(qwait, dv.rep.QueueWaitMS)
		batch = append(batch, float64(dv.rep.BatchSize))
		if len(reqs[dv.req].devices) == 1 {
			overhead = append(overhead, reqMS[dv.req]-dv.rep.QueueWaitMS-dv.rep.ElapsedMS)
		}
	}
	server, err := trace.ReadTrees(bytes.NewReader(sink.take()))
	if err != nil {
		return nil, err
	}
	byID := map[string]*trace.TreeRecord{}
	for _, rec := range server {
		byID[rec.TraceID] = rec
	}
	led := newLedger()
	for _, o := range outcomes.reqs {
		rec := o.tree.Record()
		if srv, ok := byID[rec.TraceID]; ok {
			rec = mergeTrees(rec, srv)
		}
		led.addTree(rec)
		p.trees = append(p.trees, rec)
	}
	c := countersSince(tr.Registry(), before)
	led.engineMetrics(p, len(devs))
	c.engineCounters(p, len(devs))
	qt := tailOf(qwait)
	p.metrics["core.diagnose_ms"] = mean(diag)
	p.metrics["cio.load_circuit_ms"] = ms(st.loadCircuit)
	p.metrics["tester.read_patterns_ms"] = ms(st.readPatterns)
	p.metrics["serve.request_ms"] = mean(reqMS)
	p.metrics["serve.queue_wait_p50_ms"] = median(qwait)
	p.metrics["serve.queue_wait_tail_ms"] = qt.Value
	p.metrics["serve.overhead_ms"] = mean(overhead)
	p.metrics["serve.batch_size_mean"] = mean(batch)
	p.metrics["core.batch_seed_reuse_ratio"] = ratio(c["core.batch_seed_reuse"], c["core.batch_union_seeds"])
	p.metrics["serve.shed_ratio"] = float64(shed) / float64(len(devs))
	p.metrics["loadgen.conn_wait_tail_ms"] = tailOf(connWait).Value
	p.metrics["loadgen.lag_max_ms"] = ms(lagMax)
	p.notes["server_trees"] = len(server)
	return p, nil
}

// driveResult is the timed part of a serve pass.
type driveResult struct {
	reqs   []reqOutcome
	wall   time.Duration
	u0, u1 usage
}

// drive sends the schedule open-loop: a dispatcher releases each request
// at its due time into a queue sized to the schedule (so it never
// blocks), and nproc client workers — one connection each at most —
// send them.
func (b *bench) drive(st *serveStack, reqs []serveReq, traced bool) driveResult {
	type job struct {
		i    int
		due  time.Time
		lag  time.Duration
		tree *trace.Tree
		root trace.Span
		wait trace.Span
	}
	out := make([]reqOutcome, len(reqs))
	jobs := make(chan job, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				pick := time.Now()
				j.wait.End()
				o := st.post(reqs[j.i], j.tree, j.root)
				j.root.End()
				o.lag, o.connWait, o.tree = j.lag, pick.Sub(j.due), j.tree
				o.latency = time.Since(j.due)
				out[j.i] = o
			}
		}()
	}
	u0 := readUsage()
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(rq.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		j := job{i: i, due: due, lag: time.Since(due)}
		if traced {
			j.tree = trace.NewTree(trace.TraceID{})
			j.tree.SetAttr("workload", b.workload)
			j.root = j.tree.Start("bench.request")
			j.root.SetInt("devices", int64(len(rq.devices)))
			j.wait = j.root.Start("loadgen.conn_wait")
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return driveResult{reqs: out, wall: time.Since(start), u0: u0, u1: readUsage()}
}

// decodeReport extracts device j's report from a single or batch reply.
func decodeReport(body []byte, isBatch bool, j int) (int, *serve.Report) {
	if !isBatch {
		var r serve.Report
		if err := json.Unmarshal(body, &r); err != nil {
			return http.StatusOK, nil
		}
		return http.StatusOK, &r
	}
	var br serve.BatchReply
	if err := json.Unmarshal(body, &br); err != nil || j >= len(br.Results) {
		return http.StatusOK, nil
	}
	res := br.Results[j]
	if res.Status != http.StatusOK {
		return res.Status, nil
	}
	return res.Status, res.Report
}

func cloneReport(r *serve.Report) *serve.Report {
	c := *r
	return &c
}
