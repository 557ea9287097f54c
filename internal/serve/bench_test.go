package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"multidiag/internal/defect"
	"multidiag/internal/obs"
)

// TestConcurrentClientsRace hammers the server with mixed traffic from
// many goroutines; run under -race it shakes out data races across the
// admission path, the batcher, and the shared cone cache.
func TestConcurrentClientsRace(t *testing.T) {
	s, hs, spec := newTestServer(t, func(cfg *Config) {
		cfg.MaxInflight = 8
		cfg.QueueDepth = 4
	})
	_, textA := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	_, textB := deviceDatalog(t, spec, []defect.Defect{stuck(spec.Circuit, "G10", true)})

	const clients = 16
	const perClient = 10
	var wg sync.WaitGroup
	var ok, shed, other atomicCounter
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				text := textA
				url := hs.URL + "/v1/diagnose"
				switch (i + j) % 4 {
				case 1:
					text = textB
				case 2:
					url += "?explain=1"
				case 3:
					// Batch of two devices.
					resp, _ := postJSON(t, hs.URL+"/v1/diagnose/batch", BatchRequest{
						Workload: "c17",
						Devices:  []DeviceRequest{{Datalog: textA}, {Datalog: textB}},
					})
					classify(resp.StatusCode, &ok, &shed, &other)
					continue
				}
				resp, _ := postJSON(t, url, DiagnoseRequest{Workload: "c17", Datalog: text})
				classify(resp.StatusCode, &ok, &shed, &other)
			}
		}(i)
	}
	wg.Wait()
	if other.n != 0 {
		t.Errorf("unexpected statuses under load: %d (ok=%d shed=%d)", other.n, ok.n, shed.n)
	}
	if ok.n == 0 {
		t.Error("no request succeeded under load")
	}
	if got := s.reg.Counter("serve.panics").Value(); got != 0 {
		t.Errorf("serve.panics = %d", got)
	}
}

type atomicCounter struct {
	mu sync.Mutex
	n  int
}

func (c *atomicCounter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }

func classify(status int, ok, shed, other *atomicCounter) {
	switch status {
	case http.StatusOK:
		ok.inc()
	case http.StatusTooManyRequests:
		shed.inc()
	default:
		other.inc()
	}
}

// BenchmarkServeDiagnose measures one served diagnosis end to end at the
// handler level — request decode, admission, batcher hand-off, scoring
// pass, report encode — with no network in the way. Comparable against
// BenchmarkDiagnose* in internal/core to read the serving overhead.
// Runs with the default tracing config (span trees on every request,
// 10% tail-sampled), so the baseline carries the tracing tax.
func BenchmarkServeDiagnose(b *testing.B) { benchServeDiagnose(b, 0) }

// BenchmarkServeDiagnoseNoTrace is the same request with request tracing
// disabled — the allocation-free path. The gap to BenchmarkServeDiagnose
// is the whole-request tracing overhead (span trees per request plus the
// capture decision); mdgate bench gates both against the baseline, so the
// disabled path is pinned independently of the traced one.
func BenchmarkServeDiagnoseNoTrace(b *testing.B) { benchServeDiagnose(b, -1) }

func benchServeDiagnose(b *testing.B, traceSample float64) {
	spec := testWorkload(b)
	s, err := New(Config{Trace: obs.New("serve-bench"), TraceSample: traceSample}, []WorkloadSpec{spec})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	_, text := deviceDatalog(b, spec, []defect.Defect{stuck(spec.Circuit, "G16", false)})
	body, err := json.Marshal(DiagnoseRequest{Workload: "c17", Datalog: text})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/diagnose", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}
