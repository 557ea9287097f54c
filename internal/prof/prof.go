// Package prof is the continuous-profiling layer of the diagnosis
// pipeline: phase-attributed allocation and contention accounting on top
// of runtime/metrics, pprof label propagation so CPU profiles slice by
// engine stage, and a bounded snapshot ring served at /debug/prof (with an
// optional JSONL sink cmd/mdprof analyzes offline). It also holds the
// engine's one phase handle (Phase, which drives obs, trace and prof
// together) and the CLIs' one instrumentation flag set (Flags).
//
// Everything is stdlib-only and follows the obs layer's nil-tolerance
// contract: with no collector installed (the default), every profiling
// entry point — PhaseCtx, Worker, Pin, WithWorkload — degrades to an
// inert no-op whose
// cost is one atomic pointer load, so instrumented engines need no "is
// profiling on?" branches and the disabled fast path stays free
// (BenchmarkDiagnoseProfiled in internal/core pins the enabled-path
// overhead).
//
// Attribution semantics: runtime/metrics readings are process-global, so a
// phase delta attributes everything the process allocated (or waited on)
// between the token's Begin and End — including goroutines the phase
// spawned, which is exactly what the fault-parallel score phase wants.
// When two phases are open concurrently (e.g. two served diagnoses
// in-flight at once) their windows overlap and both phases absorb the
// shared activity; per-phase numbers then over-count but remain
// comparable run-to-run, which is what the mdprof gate needs. Single-run
// CLI diagnoses have strictly sequential phases, and there the per-phase
// deltas sum to the run's total allocation (asserted to within 10% by
// internal/core's TestProfPhaseAllocAttribution).
package prof

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"multidiag/internal/obs"
)

// runtime/metrics sources feeding phase deltas and snapshots. KindBad
// guards in readInto keep the collector inert for any name a given
// toolchain does not export (/sync/mutex/wait/total:seconds is Go ≥ 1.20;
// /sched/pauses/total/gc:seconds moved under /sched/ in Go 1.22).
const (
	srcAllocBytes = "/gc/heap/allocs:bytes"
	srcAllocObjs  = "/gc/heap/allocs:objects"
	srcMutexWait  = "/sync/mutex/wait/total:seconds"
	srcGCPause    = "/sched/pauses/total/gc:seconds"
	srcGoro       = "/sched/goroutines:goroutines"
	srcHeap       = "/memory/classes/heap/objects:bytes"
)

var sampleNames = []string{srcAllocBytes, srcAllocObjs, srcMutexWait, srcGCPause, srcGoro, srcHeap}

// samplePool recycles the metrics.Sample slices readings go through, so a
// phase boundary on the enabled path costs a metrics.Read and no steady
// allocation (runtime/metrics reuses a sample's histogram memory when the
// same slice is presented again).
var samplePool = sync.Pool{New: func() any {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	return &s
}}

// reading is one instant's cumulative process counters.
type reading struct {
	allocBytes int64
	allocObjs  int64
	// mutexWaitNS is the cumulative time goroutines spent blocked on
	// sync.Mutex/RWMutex (the contention observatory's primary signal).
	mutexWaitNS int64
	// gcPauseNS is a bucket-weighted estimate of cumulative stop-the-world
	// GC pause time (the runtime only exports the distribution).
	gcPauseNS  int64
	goroutines int64
	heapBytes  int64
}

// readNow samples every source once.
func readNow() reading {
	sp := samplePool.Get().(*[]metrics.Sample)
	metrics.Read(*sp)
	var r reading
	for i := range *sp {
		s := &(*sp)[i]
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := int64(s.Value.Uint64())
			switch s.Name {
			case srcAllocBytes:
				r.allocBytes = v
			case srcAllocObjs:
				r.allocObjs = v
			case srcGoro:
				r.goroutines = v
			case srcHeap:
				r.heapBytes = v
			}
		case metrics.KindFloat64:
			if s.Name == srcMutexWait {
				r.mutexWaitNS = int64(s.Value.Float64() * 1e9)
			}
		case metrics.KindFloat64Histogram:
			if s.Name == srcGCPause {
				r.gcPauseNS = histTotalNS(s.Value.Float64Histogram())
			}
		}
	}
	samplePool.Put(sp)
	return r
}

// histTotalNS estimates the cumulative total of a runtime float64
// histogram in nanoseconds: count × bucket upper bound (the same
// upper-bound convention the obs quantiles use; ±Inf bounds clamp to the
// finite neighbour). The estimate is monotone across reads, so deltas of
// estimates are estimates of deltas.
func histTotalNS(fh *metrics.Float64Histogram) int64 {
	if fh == nil {
		return 0
	}
	var total float64
	for b, n := range fh.Counts {
		if n == 0 {
			continue
		}
		bound := fh.Buckets[b+1]
		if math.IsInf(bound, +1) {
			bound = fh.Buckets[b]
		}
		if math.IsInf(bound, -1) || bound < 0 {
			bound = 0
		}
		total += float64(n) * bound
	}
	return int64(total * 1e9)
}

// PhaseProf is the accumulated profile of one phase name: how many phase
// windows closed, their wall time, and the process-global deltas absorbed
// inside them.
type PhaseProf struct {
	Name         string `json:"name"`
	Count        int64  `json:"n"`
	WallNS       int64  `json:"wall_ns"`
	AllocBytes   int64  `json:"alloc_bytes"`
	AllocObjects int64  `json:"alloc_objects"`
	MutexWaitNS  int64  `json:"mutex_wait_ns"`
	GCPauseNS    int64  `json:"gc_pause_ns"`
}

// phaseAgg is a PhaseProf plus its cached registry counter handles, so a
// phase End updates the obs registry lock-free after the first window.
type phaseAgg struct {
	PhaseProf
	cBytes, cObjs, cMutex, cGC *obs.Counter
}

// Config tunes a Collector. The zero value is a valid in-memory collector:
// phase accounting and pins only, no sampler goroutine, no sink.
type Config struct {
	// Registry, when set, receives per-phase counters
	// (prof.phase.<name>.alloc_bytes / .alloc_objects / .mutex_wait_ns /
	// .gc_pause_ns), which flow through the existing exports: run-record
	// snapshots, Prometheus /metrics and the mddiag -v footer.
	Registry *obs.Registry
	// RingSize is the capacity of EACH snapshot ring (pinned and rolling
	// get one each, so routine sampling can never evict a shed or panic
	// pin). Default 64.
	RingSize int
	// SampleInterval starts a background sampler writing one "sample"
	// snapshot per tick (0: no sampler; /debug/prof still serves a live
	// summary).
	SampleInterval time.Duration
	// Sink, when set, receives every retained snapshot as one JSON line,
	// write-through at snapshot time, plus a final "summary" at Stop.
	// Write errors are sticky and surface from Stop.
	Sink interface{ Write(p []byte) (int, error) }
	// MinPinInterval rate-limits Pin so a shed storm cannot turn the hot
	// admission path into a metrics.Read storm. Default 100ms; negative
	// disables the limit (tests).
	MinPinInterval time.Duration
}

// Collector owns the phase aggregates and the snapshot rings. Safe for
// concurrent use. Create with New, install with Enable, stop with Stop.
type Collector struct {
	cfg   Config
	epoch time.Time
	base  reading

	mu     sync.Mutex
	phases map[string]*phaseAgg

	ringMu  sync.Mutex
	pinned  ring
	rolling ring
	seq     int64

	// sink streams snapshots to Config.Sink (nil without one); its first
	// write error is sticky and Stop returns it.
	sink *obs.JSONL[Snapshot]

	lastPinMu sync.Mutex
	lastPin   time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a collector and, when Config.SampleInterval is set, starts
// its sampler goroutine (stopped by Stop).
func New(cfg Config) *Collector {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	if cfg.MinPinInterval == 0 {
		cfg.MinPinInterval = 100 * time.Millisecond
	}
	c := &Collector{
		cfg:    cfg,
		epoch:  time.Now(),
		base:   readNow(),
		phases: make(map[string]*phaseAgg),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if cfg.Sink != nil {
		c.sink = obs.NewJSONL[Snapshot](cfg.Sink, nil)
	}
	c.pinned.buf = make([]Snapshot, cfg.RingSize)
	c.rolling.buf = make([]Snapshot, cfg.RingSize)
	if cfg.SampleInterval > 0 {
		go c.loop(cfg.SampleInterval)
	} else {
		close(c.done)
	}
	return c
}

func (c *Collector) loop(interval time.Duration) {
	defer close(c.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.snapshot(KindSample, "")
		}
	}
}

// Stop ends the sampler (if any), writes one final "summary" snapshot to
// the ring and sink, and returns the sticky sink error. Idempotent; safe
// on a nil collector.
func (c *Collector) Stop() error {
	if c == nil {
		return nil
	}
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.snapshot(KindSummary, "")
	})
	return c.sink.Err()
}

// Phase opens a phase window: the returned token holds the readings at
// open and folds the deltas into the collector at End. Prefer PhaseCtx at
// call sites that have a context — it also propagates the pprof label.
func (c *Collector) Phase(name string) PhaseToken {
	if c == nil {
		return PhaseToken{}
	}
	return PhaseToken{c: c, name: name, start: time.Now(), base: readNow()}
}

// record folds one closed window into the aggregate and the registry.
func (c *Collector) record(name string, wall time.Duration, start, end reading) {
	db := end.allocBytes - start.allocBytes
	do := end.allocObjs - start.allocObjs
	dm := end.mutexWaitNS - start.mutexWaitNS
	dg := end.gcPauseNS - start.gcPauseNS
	c.mu.Lock()
	a := c.phases[name]
	if a == nil {
		a = &phaseAgg{PhaseProf: PhaseProf{Name: name}}
		if r := c.cfg.Registry; r != nil {
			a.cBytes = r.Counter("prof.phase." + name + ".alloc_bytes")
			a.cObjs = r.Counter("prof.phase." + name + ".alloc_objects")
			a.cMutex = r.Counter("prof.phase." + name + ".mutex_wait_ns")
			a.cGC = r.Counter("prof.phase." + name + ".gc_pause_ns")
		}
		c.phases[name] = a
	}
	a.Count++
	a.WallNS += wall.Nanoseconds()
	a.AllocBytes += db
	a.AllocObjects += do
	a.MutexWaitNS += dm
	a.GCPauseNS += dg
	c.mu.Unlock()
	a.cBytes.Add(db)
	a.cObjs.Add(do)
	a.cMutex.Add(dm)
	a.cGC.Add(dg)
}

// Phases returns the per-phase aggregates sorted by descending allocated
// bytes (ties by name), the order every attribution table renders in.
func (c *Collector) Phases() []PhaseProf {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]PhaseProf, 0, len(c.phases))
	for _, a := range c.phases {
		out = append(out, a.PhaseProf)
	}
	c.mu.Unlock()
	sortPhases(out)
	return out
}

func sortPhases(out []PhaseProf) {
	// insertion sort: phase counts are small and this keeps the import set
	// lean for the hot registry-free path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &out[j-1], &out[j]
			if a.AllocBytes > b.AllocBytes || (a.AllocBytes == b.AllocBytes && a.Name <= b.Name) {
				break
			}
			*a, *b = *b, *a
		}
	}
}

// PhaseToken is one in-flight phase window. The zero value is inert.
type PhaseToken struct {
	c     *Collector
	name  string
	start time.Time
	base  reading
	// restore, when non-nil, is the context whose pprof labels End
	// restores onto the goroutine (set by PhaseCtx).
	restore restoreCtx
}

// End closes the window, folding the process-global deltas since the
// token opened into the phase aggregate (and restoring the goroutine's
// previous pprof labels when PhaseCtx set them). Ending a zero token is a
// no-op.
func (t PhaseToken) End() {
	if t.c == nil {
		return
	}
	end := readNow()
	t.c.record(t.name, time.Since(t.start), t.base, end)
	t.restoreLabels()
}
