// Continuous snapshots: the collector periodically (and on demand)
// freezes its cumulative state — process counters since the collector's
// epoch plus the per-phase attribution table — into a bounded pair of
// rings. Routine "sample" ticks roll through one ring; "pin" snapshots
// (taken at interesting moments: load shed, engine panic) land in a
// dedicated always-keep ring the samples can never evict, mirroring the
// tail-capture design of internal/trace. GET /debug/prof serves both
// rings plus a live summary as JSONL; a configured sink receives the same
// records write-through for offline mdprof analysis.
package prof

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// Schema identifies mdprof snapshot records.
const Schema = "mdprof/v1"

// Snapshot kinds.
const (
	// KindSample is a routine sampler tick.
	KindSample = "sample"
	// KindPin is an always-keep snapshot taken at an interesting moment
	// (Reason says why: "shed:queue", "panic", …).
	KindPin = "pin"
	// KindSummary is the final snapshot Stop writes (and the live record
	// /debug/prof appends at scrape time).
	KindSummary = "summary"
)

// Snapshot is one JSONL record: cumulative process deltas since the
// collector epoch plus the phase attribution table at that instant.
type Snapshot struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Seq    int64  `json:"seq"`
	TSNS   int64  `json:"ts_ns"`
	Reason string `json:"reason,omitempty"`
	// RequestID / TraceID join a pinned snapshot to the request that
	// triggered it: the same IDs the serve layer stamps on responses and
	// span trees, so a /debug/prof pin lines up with its /debug/trace tree
	// without timestamp guessing. Empty on sampler ticks and summaries.
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
	// Instantaneous gauges.
	HeapBytes  int64 `json:"heap_bytes"`
	Goroutines int64 `json:"goroutines"`
	// Cumulative since the collector epoch.
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
	MutexWaitNS  int64 `json:"mutex_wait_ns"`
	GCPauseNS    int64 `json:"gc_pause_ns"`
	// Phases is the attribution table (cumulative; diff two snapshots to
	// window it).
	Phases []PhaseProf `json:"phases,omitempty"`
}

// ring is a fixed-capacity overwrite-oldest snapshot buffer.
type ring struct {
	buf  []Snapshot
	next int
	full bool
}

func (r *ring) push(s Snapshot) {
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// snapshotInto appends the ring's records oldest-first.
func (r *ring) snapshotInto(out []Snapshot) []Snapshot {
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// take freezes the current state (does not store it anywhere).
func (c *Collector) take(kind, reason string) Snapshot {
	now := readNow()
	c.ringMu.Lock()
	seq := c.seq
	c.seq++
	c.ringMu.Unlock()
	return Snapshot{
		Schema:       Schema,
		Kind:         kind,
		Seq:          seq,
		TSNS:         time.Since(c.epoch).Nanoseconds(),
		Reason:       reason,
		HeapBytes:    now.heapBytes,
		Goroutines:   now.goroutines,
		AllocBytes:   now.allocBytes - c.base.allocBytes,
		AllocObjects: now.allocObjs - c.base.allocObjs,
		MutexWaitNS:  now.mutexWaitNS - c.base.mutexWaitNS,
		GCPauseNS:    now.gcPauseNS - c.base.gcPauseNS,
		Phases:       c.Phases(),
	}
}

// snapshot takes, retains and sinks one record.
func (c *Collector) snapshot(kind, reason string) {
	s := c.take(kind, reason)
	c.ringMu.Lock()
	if kind == KindPin {
		c.pinned.push(s)
	} else {
		c.rolling.push(s)
	}
	c.ringMu.Unlock()
	c.sink.Emit(s)
}

// Pin takes an always-keep snapshot with the given reason. Calls are
// rate-limited to one per Config.MinPinInterval so a shed storm cannot
// turn the admission path into a metrics.Read storm; within the limit the
// call is a cheap timestamp check. Safe on a nil collector.
func (c *Collector) Pin(reason string) { c.PinWith(reason, "", "") }

// PinWith is Pin with the triggering request's join keys stamped into the
// snapshot, so the pin can be matched to its captured trace tree and log
// lines. Empty IDs are fine (they serialize away).
func (c *Collector) PinWith(reason, requestID, traceID string) {
	if c == nil {
		return
	}
	if c.cfg.MinPinInterval > 0 {
		c.lastPinMu.Lock()
		now := time.Now()
		if now.Sub(c.lastPin) < c.cfg.MinPinInterval {
			c.lastPinMu.Unlock()
			return
		}
		c.lastPin = now
		c.lastPinMu.Unlock()
	}
	s := c.take(KindPin, reason)
	s.RequestID = requestID
	s.TraceID = traceID
	c.ringMu.Lock()
	c.pinned.push(s)
	c.ringMu.Unlock()
	c.sink.Emit(s)
}

// Pinned returns only the always-keep ring, oldest-first — the snapshots
// worth bundling with an incident (sampler ticks are ambient noise there).
// Nil collector → nil.
func (c *Collector) Pinned() []Snapshot {
	if c == nil {
		return nil
	}
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	return c.pinned.snapshotInto(nil)
}

// Summary freezes one live "summary" snapshot — the cumulative phase
// attribution table at call time — without retaining it in any ring.
// ok is false on a nil collector.
func (c *Collector) Summary(reason string) (s Snapshot, ok bool) {
	if c == nil {
		return Snapshot{}, false
	}
	return c.take(KindSummary, reason), true
}

// Snapshots returns the retained records: the pinned ring first, then the
// rolling ring, each oldest-first. Nil collector → nil.
func (c *Collector) Snapshots() []Snapshot {
	if c == nil {
		return nil
	}
	c.ringMu.Lock()
	defer c.ringMu.Unlock()
	out := make([]Snapshot, 0, len(c.pinned.buf)+len(c.rolling.buf))
	out = c.pinned.snapshotInto(out)
	out = c.rolling.snapshotInto(out)
	return out
}

// WriteTo streams the retained snapshots as JSONL — pins first, then
// samples — followed by one live "summary" record frozen at call time, so
// a scrape always carries the current attribution table even when no
// sampler tick has fired yet. Implements io.WriterTo.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	if c == nil {
		return 0, nil
	}
	var n int64
	enc := json.NewEncoder(w)
	for _, s := range c.Snapshots() {
		if err := enc.Encode(s); err != nil {
			return n, err
		}
		n++
	}
	return n, enc.Encode(c.take(KindSummary, "live"))
}

// Handler serves the installed collector's snapshots at GET /debug/prof
// (404 while profiling is disabled, so scrapers fail loudly instead of
// reading an empty body).
func Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		c := Active()
		if c == nil {
			http.Error(rw, "profiling disabled (enable with -prof / -prof-out / -prof-sample)", http.StatusNotFound)
			return
		}
		rw.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := c.WriteTo(rw); err != nil && c.cfg.Registry != nil {
			c.cfg.Registry.Counter("prof.serve_errors").Inc()
		}
	})
}
