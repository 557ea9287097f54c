package prof

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"multidiag/internal/obs"
)

// install swaps c in as the process collector for one test and restores
// the disabled state afterwards (tests share the process-global).
func install(t *testing.T, c *Collector) {
	t.Helper()
	Enable(c)
	t.Cleanup(func() {
		Disable()
		c.Stop()
	})
}

// ballast defeats dead-code elimination of test allocations.
var ballast [][]byte

func allocate(n, size int) {
	for i := 0; i < n; i++ {
		ballast = append(ballast, make([]byte, size))
	}
	ballast = ballast[:0]
}

func TestPhaseDeltaAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Registry: reg})
	install(t, c)

	const windows, objs, size = 3, 100, 1024
	for i := 0; i < windows; i++ {
		_, pt := PhaseCtx(context.Background(), "score")
		allocate(objs, size)
		pt.End()
	}
	phases := c.Phases()
	if len(phases) != 1 || phases[0].Name != "score" {
		t.Fatalf("phases = %+v, want one 'score' entry", phases)
	}
	p := phases[0]
	if p.Count != windows {
		t.Fatalf("count = %d, want %d", p.Count, windows)
	}
	// runtime/metrics flushes per-P allocation stats with a small lag, so
	// allow the same 10% slack the core attribution test uses.
	if min := int64(windows*objs*size) * 9 / 10; p.AllocBytes < min {
		t.Fatalf("alloc_bytes = %d, want ≥ %d (≈ the bytes the phase visibly allocated)", p.AllocBytes, min)
	}
	if min := int64(windows*objs) * 9 / 10; p.AllocObjects < min {
		t.Fatalf("alloc_objects = %d, want ≥ %d", p.AllocObjects, min)
	}
	if p.WallNS <= 0 {
		t.Fatalf("wall_ns = %d, want > 0", p.WallNS)
	}
	// The registry counters mirror the aggregate.
	snap := reg.Snapshot()
	if got := snap["prof.phase.score.alloc_bytes"]; got != p.AllocBytes {
		t.Fatalf("registry counter %d, aggregate %d", got, p.AllocBytes)
	}
	if got := snap["prof.phase.score.alloc_objects"]; got != p.AllocObjects {
		t.Fatalf("registry objects counter %d, aggregate %d", got, p.AllocObjects)
	}
}

// TestConcurrentPhases drives overlapping windows from many goroutines —
// the served-diagnosis shape — and checks the aggregates stay coherent
// (exact attribution is process-global and over-counts by design).
func TestConcurrentPhases(t *testing.T) {
	c := New(Config{})
	install(t, c)

	const workers, rounds = 8, 20
	// One sink slot per goroutine keeps the allocations live without a
	// shared write.
	sinks := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("phase%d", w%2)
			for i := 0; i < rounds; i++ {
				_, pt := PhaseCtx(context.Background(), name)
				sinks[w] = make([]byte, 256)
				pt.End()
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, p := range c.Phases() {
		if p.AllocBytes < 0 || p.WallNS < 0 {
			t.Fatalf("negative aggregate: %+v", p)
		}
		total += p.Count
	}
	if want := int64(workers * rounds); total != want {
		t.Fatalf("total windows = %d, want %d", total, want)
	}
}

func TestDisabledPathInert(t *testing.T) {
	Disable()
	ctx := context.Background()
	lctx, pt := PhaseCtx(ctx, "x")
	if lctx != ctx {
		t.Fatal("disabled PhaseCtx rewrapped the context")
	}
	pt.End() // zero token: must not panic
	wctx, restore := WithWorkload(ctx, "w")
	if wctx != ctx {
		t.Fatal("disabled WithWorkload rewrapped the context")
	}
	restore()
	ran := false
	Worker(ctx, 3, "", func(context.Context, Phase) { ran = true })
	if !ran {
		t.Fatal("disabled Worker did not run the body")
	}
	Pin("shed:test") // nil collector: must not panic
	if Enabled() {
		t.Fatal("Enabled() with no collector installed")
	}
}

func TestLabelPropagation(t *testing.T) {
	c := New(Config{})
	install(t, c)

	ctx, restore := WithWorkload(context.Background(), "c432")
	defer restore()
	pctx, pt := PhaseCtx(ctx, "score")

	// The phase context carries both labels, and fsim workers started
	// under it add theirs on top.
	assertLabel := func(ctx context.Context, key, want string) {
		t.Helper()
		got, ok := pprof.Label(ctx, key)
		if !ok || got != want {
			t.Fatalf("label %s = %q (ok=%v), want %q", key, got, ok, want)
		}
	}
	assertLabel(pctx, "workload", "c432")
	assertLabel(pctx, "phase", "score")
	var sawWorker, sawPhase bool
	Worker(pctx, 7, "", func(wctx context.Context, _ Phase) {
		pprof.ForLabels(wctx, func(key, value string) bool {
			switch {
			case key == "worker" && value == "7":
				sawWorker = true
			case key == "phase" && value == "score":
				sawPhase = true
			}
			return true
		})
	})
	if !sawWorker || !sawPhase {
		t.Fatalf("worker labels: worker=%v phase=%v, want both", sawWorker, sawPhase)
	}

	// End restores the goroutine's pre-phase label set.
	pt.End()
	gotPhase := ""
	pprof.ForLabels(ctx, func(key, value string) bool {
		if key == "phase" {
			gotPhase = value
		}
		return true
	})
	if gotPhase != "" {
		t.Fatalf("phase label %q leaked past End on the restore context", gotPhase)
	}
}

func TestRingEvictionAndPins(t *testing.T) {
	// MinPinInterval < 0 disables rate limiting so every Pin lands.
	c := New(Config{RingSize: 4, MinPinInterval: -1})
	install(t, c)

	for i := 0; i < 3; i++ {
		c.Pin("shed:queue")
	}
	for i := 0; i < 10; i++ {
		c.snapshot(KindSample, "")
	}
	snaps := c.Snapshots()
	var pins, samples int
	for _, s := range snaps {
		switch s.Kind {
		case KindPin:
			pins++
		case KindSample:
			samples++
		}
	}
	if pins != 3 {
		t.Fatalf("pins = %d, want 3 (samples must never evict pins)", pins)
	}
	if samples != 4 {
		t.Fatalf("samples = %d, want ring capacity 4", samples)
	}
	// Rolling ring keeps the NEWEST records, oldest-first within the ring.
	var seqs []int64
	for _, s := range snaps {
		if s.Kind == KindSample {
			seqs = append(seqs, s.Seq)
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("sample seqs not ascending: %v", seqs)
		}
	}
	if seqs[len(seqs)-1] != snaps[len(snaps)-1].Seq {
		t.Fatalf("last sample is not the newest: %v", seqs)
	}
}

func TestPinRateLimit(t *testing.T) {
	c := New(Config{RingSize: 8, MinPinInterval: time.Hour})
	install(t, c)
	for i := 0; i < 5; i++ {
		c.Pin("shed:inflight")
	}
	if got := len(c.Snapshots()); got != 1 {
		t.Fatalf("pins retained = %d, want 1 (rate limit)", got)
	}
}

func TestSinkStreamAndSummary(t *testing.T) {
	var buf bytes.Buffer
	c := New(Config{RingSize: 4, MinPinInterval: -1, Sink: &buf})
	Enable(c)
	_, pt := PhaseCtx(context.Background(), "extract")
	allocate(10, 512)
	pt.End()
	c.Pin("panic")
	Disable()
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	var kinds []string
	dec := json.NewDecoder(&buf)
	var last Snapshot
	for {
		var s Snapshot
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		if s.Schema != Schema {
			t.Fatalf("schema %q, want %q", s.Schema, Schema)
		}
		kinds = append(kinds, s.Kind)
		last = s
	}
	if len(kinds) != 2 || kinds[0] != KindPin || kinds[1] != KindSummary {
		t.Fatalf("sink kinds = %v, want [pin summary]", kinds)
	}
	if len(last.Phases) != 1 || last.Phases[0].Name != "extract" {
		t.Fatalf("summary phases = %+v, want the extract window", last.Phases)
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestSinkErrorSticky(t *testing.T) {
	wantErr := errors.New("disk full")
	c := New(Config{MinPinInterval: -1, Sink: &failWriter{err: wantErr}})
	c.Pin("x")
	if err := c.Stop(); !errors.Is(err, wantErr) {
		t.Fatalf("Stop() = %v, want the sink error", err)
	}
}

func TestSampler(t *testing.T) {
	c := New(Config{RingSize: 64, SampleInterval: time.Millisecond})
	install(t, c)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		var n int
		for _, s := range c.Snapshots() {
			if s.Kind == KindSample {
				n++
			}
		}
		if n >= 3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sampler produced < 3 samples in 2s at a 1ms interval")
}

func TestHandlerDisabled(t *testing.T) {
	Disable()
	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/prof", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 while disabled", rr.Code)
	}
}

// TestHandlerConcurrentPolls stress-polls /debug/prof while phases and
// pins churn — the -race proof for the ring, the aggregates and WriteTo.
func TestHandlerConcurrentPolls(t *testing.T) {
	c := New(Config{RingSize: 8, MinPinInterval: -1})
	install(t, c)
	srv := httptest.NewServer(Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, pt := PhaseCtx(context.Background(), fmt.Sprintf("phase%d", w))
				pt.End()
				if i%5 == 0 {
					Pin("shed:stress")
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %d: status %d", i, resp.StatusCode)
		}
		// Every poll ends with a live summary line even before any sample.
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		var last Snapshot
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("poll %d: bad JSONL tail: %v", i, err)
		}
		if last.Kind != KindSummary {
			t.Fatalf("poll %d: tail kind %q, want summary", i, last.Kind)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWriteTable(t *testing.T) {
	var b strings.Builder
	WriteTable(&b, []PhaseProf{
		{Name: "score", Count: 2, WallNS: 2e9, AllocBytes: 3 << 20, AllocObjects: 1000},
		{Name: "extract", Count: 1, WallNS: 5e6, AllocBytes: 1 << 20, AllocObjects: 200},
	})
	out := b.String()
	for _, want := range []string{"score", "extract", "3.0MiB", "75.0%", "2.00s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	WriteTable(&b, nil)
	if !strings.Contains(b.String(), "no phases") {
		t.Fatalf("empty table = %q", b.String())
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	c.Pin("x")
	if c.Phases() != nil || c.Snapshots() != nil {
		t.Fatal("nil collector returned data")
	}
	if n, err := c.WriteTo(io.Discard); n != 0 || err != nil {
		t.Fatalf("nil WriteTo = (%d, %v)", n, err)
	}
	if pt := c.Phase("x"); pt.c != nil {
		t.Fatal("nil Phase returned a live token")
	}
}
