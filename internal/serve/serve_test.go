package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"multidiag/internal/circuits"
	"multidiag/internal/core"
	"multidiag/internal/defect"
	"multidiag/internal/logic"
	"multidiag/internal/netlist"
	"multidiag/internal/obs"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/volume"
)

// testWorkload is the c17 fixture every serve test registers: small
// enough for sub-millisecond diagnoses, rich enough for multi-defect
// multiplets.
func testWorkload(t testing.TB) WorkloadSpec {
	t.Helper()
	c := circuits.C17()
	npi := len(c.PIs)
	pats := make([]sim.Pattern, 1<<npi)
	for m := range pats {
		p := make(sim.Pattern, npi)
		for i := 0; i < npi; i++ {
			p[i] = logic.FromBool(m>>i&1 == 1)
		}
		pats[m] = p
	}
	return WorkloadSpec{Name: "c17", Circuit: c, Patterns: pats}
}

// deviceDatalog injects the defects and returns the observed datalog plus
// its tester text serialization.
func deviceDatalog(t testing.TB, spec WorkloadSpec, ds []defect.Defect) (*tester.Datalog, string) {
	t.Helper()
	dev, err := defect.Inject(spec.Circuit, ds)
	if err != nil {
		t.Fatal(err)
	}
	log, err := tester.ApplyTest(spec.Circuit, dev, spec.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tester.WriteDatalog(&b, log); err != nil {
		t.Fatal(err)
	}
	return log, b.String()
}

func stuck(c *netlist.Circuit, net string, v1 bool) defect.Defect {
	return defect.Defect{Kind: defect.StuckNet, Net: c.NetByName(net), Value1: v1}
}

// newTestServer builds a Server on a fresh trace/registry plus an
// httptest frontend. mutate tweaks the config before New.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, WorkloadSpec) {
	t.Helper()
	spec := testWorkload(t)
	cfg := Config{Trace: obs.New("serve-test")}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg, []WorkloadSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs, spec
}

// postJSON posts body and returns the response with its bytes. Failures
// use t.Error (not Fatal): several tests post from client goroutines,
// where Fatal is illegal; callers then observe status 0.
func postJSON(t testing.TB, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return &http.Response{Header: http.Header{}}, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Error(err)
		return &http.Response{Header: http.Header{}}, nil
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Error(err)
	}
	return resp, out.Bytes()
}

// zeroTiming clears the fields that legitimately differ between a served
// and a direct diagnosis: timings plus the per-request join keys
// (request ID, trace ID).
func zeroTiming(r *Report) {
	r.ElapsedMS = 0
	r.QueueWaitMS = 0
	r.BatchSize = 0
	r.RequestID = ""
	r.TraceID = ""
}

// TestGoldenReportMatchesCLI is the acceptance pin: the served report
// must be bit-identical (timing aside) to what the CLI path — a direct
// core.Diagnose over the same circuit, patterns and response — produces,
// through both the datalog-text and the structured request forms.
func TestGoldenReportMatchesCLI(t *testing.T) {
	_, hs, spec := newTestServer(t, nil)
	log, text := deviceDatalog(t, spec,
		[]defect.Defect{stuck(spec.Circuit, "G16", false), stuck(spec.Circuit, "G10", true)})

	res, err := core.Diagnose(spec.Circuit, spec.Patterns, log, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := BuildReport("c17", spec.Circuit, log, res, 10)
	zeroTiming(want)
	if len(want.Multiplet) == 0 {
		t.Fatal("fixture produced an empty multiplet; golden test would be vacuous")
	}

	// Structured request body mirroring the datalog.
	var fails []volume.PatternFails
	for _, p := range log.FailingPatterns() {
		fails = append(fails, volume.PatternFails{Pattern: p, POs: log.Fails[p].Members()})
	}

	for name, req := range map[string]DiagnoseRequest{
		"datalog-text": {Workload: "c17", Datalog: text},
		"structured":   {Workload: "c17", Response: &DeviceResponse{Fails: fails}},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/diagnose", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var got Report
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.BatchSize < 1 {
			t.Errorf("%s: served report missing batch size", name)
		}
		zeroTiming(&got)
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: served report diverges from direct diagnosis\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
}

// TestExplainInline: ?explain=1 attaches a non-empty flight-recorder
// narrative without perturbing the rest of the report.
func TestExplainInline(t *testing.T) {
	_, hs, spec := newTestServer(t, nil)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	resp, body := postJSON(t, hs.URL+"/v1/diagnose?explain=1", DiagnoseRequest{Workload: "c17", Datalog: text})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rep Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Explain == "" {
		t.Error("explain=1 returned no narrative")
	}
	if rep.BatchSize != 1 {
		t.Errorf("explained request ran in a batch of %d, want solo", rep.BatchSize)
	}
	if !strings.Contains(rep.Explain, "G16") {
		t.Errorf("narrative does not mention the defect site:\n%s", rep.Explain)
	}
}

// TestRequestValidation: malformed requests are rejected at admission
// with 4xx, never reaching the engine.
func TestRequestValidation(t *testing.T) {
	_, hs, spec := newTestServer(t, nil)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	for name, tc := range map[string]struct {
		req  DiagnoseRequest
		want int
	}{
		"unknown-workload": {DiagnoseRequest{Workload: "nope", Datalog: text}, http.StatusNotFound},
		"no-behaviour":     {DiagnoseRequest{Workload: "c17"}, http.StatusBadRequest},
		"both-forms":       {DiagnoseRequest{Workload: "c17", Datalog: text, Response: &DeviceResponse{}}, http.StatusBadRequest},
		"bad-pattern": {DiagnoseRequest{Workload: "c17",
			Response: &DeviceResponse{Fails: []volume.PatternFails{{Pattern: 99, POs: []int{0}}}}}, http.StatusBadRequest},
		"bad-po": {DiagnoseRequest{Workload: "c17",
			Response: &DeviceResponse{Fails: []volume.PatternFails{{Pattern: 0, POs: []int{7}}}}}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, hs.URL+"/v1/diagnose", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.want, body)
		}
	}
}

// TestQueueFullSheds: with the executor stalled and the queue full, the
// next request is shed with 429 + Retry-After and the serve.shed counter
// moves — while the server keeps answering health checks.
func TestQueueFullSheds(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, hs, spec := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 1
		cfg.MaxBatch = 1
		cfg.MaxInflight = 100
	})
	s.testHookExecute = func(int) { entered <- struct{}{}; <-release }
	defer close(release)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	req := DiagnoseRequest{Workload: "c17", Datalog: text}

	// First request: picked up by the batcher, stalled in the hook.
	go postJSON(t, hs.URL+"/v1/diagnose", req)
	<-entered
	// Second request: sits in the depth-1 queue.
	go postJSON(t, hs.URL+"/v1/diagnose", req)
	waitFor(t, func() bool { return s.workloads["c17"].queued.Load() == 1 })

	// Third request: queue full → shed.
	resp, body := postJSON(t, hs.URL+"/v1/diagnose", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.reg.Counter("serve.shed").Value(); got < 1 {
		t.Errorf("serve.shed = %d, want ≥ 1", got)
	}
	if hr, err := http.Get(hs.URL + "/healthz"); err != nil || hr.StatusCode != http.StatusOK {
		t.Errorf("healthz during overload: %v %v", hr, err)
	} else {
		hr.Body.Close()
	}
}

// TestDeadlineExceeded: a request whose deadline passes while it waits
// behind a stalled executor gets 504 and counts as a timeout.
func TestDeadlineExceeded(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, hs, spec := newTestServer(t, func(cfg *Config) { cfg.MaxBatch = 1 })
	s.testHookExecute = func(int) { entered <- struct{}{}; <-release }
	defer close(release)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})

	go postJSON(t, hs.URL+"/v1/diagnose", DiagnoseRequest{Workload: "c17", Datalog: text})
	<-entered
	resp, body := postJSON(t, hs.URL+"/v1/diagnose",
		DiagnoseRequest{Workload: "c17", Datalog: text, TimeoutMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}
	if got := s.reg.Counter("serve.timeouts").Value(); got < 1 {
		t.Errorf("serve.timeouts = %d, want ≥ 1", got)
	}
}

// TestBatchCoalescing: N requests queued behind a stalled pass coalesce
// into ONE scoring pass, and every coalesced report matches the solo
// diagnosis bit for bit.
func TestBatchCoalescing(t *testing.T) {
	const n = 4
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, hs, spec := newTestServer(t, nil)
	s.testHookExecute = func(int) { entered <- struct{}{}; <-release }
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	req := DiagnoseRequest{Workload: "c17", Datalog: text}

	// Stall the batcher on a sacrificial request, then queue n more.
	go postJSON(t, hs.URL+"/v1/diagnose", req)
	<-entered
	type result struct {
		status int
		rep    Report
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := postJSON(t, hs.URL+"/v1/diagnose", req)
			var r result
			r.status = resp.StatusCode
			json.Unmarshal(body, &r.rep)
			results <- r
		}()
	}
	waitFor(t, func() bool { return s.workloads["c17"].queued.Load() == n })
	close(release)

	log, _ := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	res, err := core.Diagnose(spec.Circuit, spec.Patterns, log, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := BuildReport("c17", spec.Circuit, log, res, 10)
	zeroTiming(want)
	for i := 0; i < n; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.rep.BatchSize != n {
			t.Errorf("request %d: batch size %d, want %d (coalescing failed)", i, r.rep.BatchSize, n)
		}
		zeroTiming(&r.rep)
		if !reflect.DeepEqual(&r.rep, want) {
			t.Errorf("request %d: coalesced report diverges from solo diagnosis", i)
		}
	}
	// 2 passes total: the sacrificial solo + one coalesced batch of n.
	if got := s.reg.Counter("serve.batches").Value(); got != 2 {
		t.Errorf("serve.batches = %d, want 2 (1 solo + 1 coalesced)", got)
	}
}

// TestBatchEndpoint: /v1/diagnose/batch answers per device, matching solo
// reports, including a passing device and a malformed one.
func TestBatchEndpoint(t *testing.T) {
	_, hs, spec := newTestServer(t, nil)
	_, textA := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	logB, textB := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G10", true)})
	resp, body := postJSON(t, hs.URL+"/v1/diagnose/batch", BatchRequest{
		Workload: "c17",
		Devices: []DeviceRequest{
			{Datalog: textA},
			{Datalog: textB},
			{Response: &DeviceResponse{}}, // passing device: no fails
			{},                            // malformed: no behaviour at all
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var reply BatchReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(reply.Results))
	}
	for i := 0; i < 3; i++ {
		if reply.Results[i].Status != http.StatusOK {
			t.Errorf("device %d: status %d (%s)", i, reply.Results[i].Status, reply.Results[i].Error)
		}
	}
	if reply.Results[3].Status != http.StatusBadRequest {
		t.Errorf("malformed device: status %d, want 400", reply.Results[3].Status)
	}
	res, err := core.Diagnose(spec.Circuit, spec.Patterns, logB, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := BuildReport("c17", spec.Circuit, logB, res, 10)
	zeroTiming(want)
	got := reply.Results[1].Report
	zeroTiming(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batch device report diverges from solo diagnosis\ngot:  %+v\nwant: %+v", got, want)
	}
	if reply.Results[2].Report.EvidenceBits != 0 || len(reply.Results[2].Report.Multiplet) != 0 {
		t.Errorf("passing device got a non-empty diagnosis: %+v", reply.Results[2].Report)
	}
}

// TestGracefulDrain: draining answers queued work, flips readyz, refuses
// new requests with 503, and Drain returns once the batchers exit.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s, hs, spec := newTestServer(t, nil)
	s.testHookExecute = func(int) { entered <- struct{}{}; <-release }
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	req := DiagnoseRequest{Workload: "c17", Datalog: text}

	inflight := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postJSON(t, hs.URL+"/v1/diagnose", req)
			inflight <- resp.StatusCode
		}()
	}
	<-entered // first request executing, second queued or about to be
	waitFor(t, func() bool { return s.inflight.Load() == 2 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	if rr, err := http.Get(hs.URL + "/readyz"); err != nil || rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: got %v %v, want 503", rr, err)
	} else {
		rr.Body.Close()
	}
	if resp, _ := postJSON(t, hs.URL+"/v1/diagnose", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: status %d, want 503", resp.StatusCode)
	}

	close(release) // let the stalled pass and the queued request finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 2; i++ {
		if status := <-inflight; status != http.StatusOK {
			t.Errorf("in-flight request %d finished with %d, want 200", i, status)
		}
	}
}

// TestWorkloadsAndMetrics: the registry endpoint lists the workload and
// /metrics exposes the serve metric family after traffic.
func TestWorkloadsAndMetrics(t *testing.T) {
	_, hs, spec := newTestServer(t, nil)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	if resp, _ := postJSON(t, hs.URL+"/v1/diagnose", DiagnoseRequest{Workload: "c17", Datalog: text}); resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: status %d", resp.StatusCode)
	}
	resp, err := http.Get(hs.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var infos []WorkloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "c17" || infos[0].Patterns != len(spec.Patterns) {
		t.Errorf("workloads = %+v", infos)
	}
	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"multidiag_serve_requests 1",
		"multidiag_serve_batches",
		"multidiag_serve_batch_size_count",
		"multidiag_serve_service_us_count",
		"multidiag_core_candidates_scored",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServiceRecord: the shutdown snapshot carries the run's admission
// and latency numbers and round-trips through the qrec service file.
func TestServiceRecord(t *testing.T) {
	s, hs, spec := newTestServer(t, nil)
	_, text := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, hs.URL+"/v1/diagnose", DiagnoseRequest{Workload: "c17", Datalog: text}); resp.StatusCode != http.StatusOK {
			t.Fatalf("diagnose %d failed", i)
		}
	}
	rec := s.ServiceRecord("test")
	if rec.Requests != 3 || rec.Batches == 0 || rec.MeanBatch == 0 || rec.ServiceP95MS == 0 {
		t.Errorf("record = %+v", rec)
	}
	if rec.Panics != 0 || rec.Shed != 0 {
		t.Errorf("clean run recorded failures: %+v", rec)
	}
}

// waitFor polls cond for up to 5s; registers a fatal on timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits
