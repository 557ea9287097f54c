package main

import (
	"sort"
	"time"

	"multidiag/internal/obs"
	"multidiag/internal/trace"
)

// The per-layer ledger is read from span trees (the benchmark's own spans
// plus the engine's phase spans joined into the same tree) and from the
// engine's obs counters.

// enginePhases maps engine span names to their per-layer metrics.
var enginePhases = []struct{ span, metric string }{
	{"evidence", "core.evidence_ms"},
	{"goodsim", "core.goodsim_ms"},
	{"extract", "core.extract_ms"},
	{"score", "core.score_ms"},
	{"fsim.parallel", "fsim.parallel_ms"},
	{"cover", "core.cover_ms"},
	{"refine", "core.refine_ms"},
	{"xcheck", "core.xcheck_ms"},
}

// span is the common form of a trace-tree span and an obs span record.
type span struct {
	name       string
	parent     int // index into the same slice, -1 for none
	start, dur int64
}

// ledger accumulates self and total time by span name.
type ledger struct {
	self, total map[string]time.Duration
	// workerBusy is the summed duration of fsim.worker spans; workerCap
	// is Σ fsim.parallel wall × the workers under it.
	workerBusy, workerCap time.Duration
}

func newLedger() *ledger {
	return &ledger{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
}

// addTree folds one mdtrace tree.
func (l *ledger) addTree(rec *trace.TreeRecord) {
	idx := make(map[string]int, len(rec.Spans))
	for i, s := range rec.Spans {
		idx[s.SpanID] = i
	}
	spans := make([]span, len(rec.Spans))
	for i, s := range rec.Spans {
		p, ok := idx[s.ParentID]
		if !ok {
			p = -1
		}
		spans[i] = span{name: s.Name, parent: p, start: s.StartNS, dur: s.DurNS}
	}
	l.add(spans)
}

// addObs folds obs span records (the vol engine runs, which carry no
// request tree). An unfinished record has zero duration.
func (l *ledger) addObs(recs []obs.SpanRecord) {
	spans := make([]span, len(recs))
	for i, r := range recs {
		spans[i] = span{name: r.Name, parent: r.Parent, start: int64(r.Start), dur: int64(r.Dur)}
	}
	l.add(spans)
}

// add computes every span's self time: its duration minus the part of its
// interval its children cover. A parallel scoring pass's own fsim.worker
// spans count as part of it (they are the pass, running on several
// cores), so the phase self times tile the diagnosis.
func (l *ledger) add(spans []span) {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 && s.parent < len(spans) {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range spans {
		var iv [][2]int64
		workers := 0
		for _, c := range children[i] {
			cs := spans[c]
			if cs.name == "fsim.worker" && s.name == "fsim.parallel" {
				workers++
				l.workerBusy += time.Duration(cs.dur)
				continue
			}
			iv = append(iv, [2]int64{cs.start, cs.start + cs.dur})
		}
		if workers > 0 {
			l.workerCap += time.Duration(s.dur * int64(workers))
		}
		self := s.dur - covered(iv, s.start, s.start+s.dur)
		l.self[s.name] += time.Duration(self)
		l.total[s.name] += time.Duration(s.dur)
	}
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, end int64 = 0, lo
	for _, v := range iv {
		s, e := max(v[0], end), min(v[1], hi)
		if e > s {
			sum += e - s
			end = e
		}
	}
	return sum
}

// engineMetrics fills the phase self times (per device), the serial share
// and the worker utilization.
func (l *ledger) engineMetrics(p *passResult, devices int) {
	if devices == 0 {
		return
	}
	for _, ph := range enginePhases {
		p.metrics[ph.metric] = ms(l.self[ph.span]) / float64(devices)
	}
	if diag := l.total["diagnose"] + l.total["diagnose_batch"]; diag > 0 {
		p.metrics["core.serial_share"] = 1 - float64(l.total["extract"]+l.total["fsim.parallel"])/float64(diag)
	}
	if l.workerCap > 0 {
		p.metrics["fsim.worker_busy_ratio"] = float64(l.workerBusy) / float64(l.workerCap)
	}
}

// counters is a registry delta: the traced pass's counts, with set-up and
// warm-up excluded.
type counters map[string]int64

func countersSince(reg *obs.Registry, before map[string]int64) counters {
	out := counters{}
	for k, v := range reg.Snapshot() {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// engineCounters fills the engine's work counts per diagnosed device.
func (c counters) engineCounters(p *passResult, devices int) {
	if devices == 0 {
		return
	}
	n := float64(devices)
	p.metrics["core.seeds_per_device"] = float64(c["core.candidates_extracted"]) / n
	p.metrics["fsim.sims_per_device"] = float64(c["fsim.sims"]) / n
	p.metrics["fsim.gate_word_evals_per_device"] = float64(c["fsim.cone_gate_word_evals"]) / n
	p.metrics["cpt.stem_flips_per_device"] = float64(c["cpt.stem_flips"]) / n
	p.metrics["core.candidates_per_sim"] = ratio(c["core.candidates_scored"], c["fsim.sims"])
	if hits, misses := c["fsim.cone_cache_hits"], c["fsim.cone_cache_misses"]; hits+misses > 0 {
		p.metrics["fsim.cone_cache_hit_ratio"] = ratio(hits, hits+misses)
	}
}

// mergeTrees joins a server-side tree into the client tree whose span it
// names as remote parent (same trace ID, via traceparent), shifting the
// server spans onto the client tree's clock.
func mergeTrees(client, server *trace.TreeRecord) *trace.TreeRecord {
	out := *client
	out.Spans = append([]trace.SpanRecord(nil), client.Spans...)
	shift := server.StartUnixNS - client.StartUnixNS
	for _, s := range server.Spans {
		s.StartNS += shift
		out.Spans = append(out.Spans, s)
	}
	out.Flags = append(append([]string(nil), client.Flags...), server.Flags...)
	if len(server.Attrs) > 0 {
		out.Attrs = map[string]any{}
		for k, v := range client.Attrs {
			out.Attrs[k] = v
		}
		for k, v := range server.Attrs {
			out.Attrs["server."+k] = v
		}
	}
	out.Dropped += server.Dropped
	return &out
}

// obsTrees converts obs span records into mdtrace trees, one per root
// span, so the vol engine runs (which carry no request tree) reach the
// mdtrace report too.
func obsTrees(recs []obs.SpanRecord, epoch time.Time, label string) []*trace.TreeRecord {
	ids := make([]string, len(recs))
	rootOf := make([]int, len(recs))
	var out []*trace.TreeRecord
	byRoot := map[int]*trace.TreeRecord{}
	for i, r := range recs {
		ids[i] = trace.NewSpanID().String()
		if r.Parent < 0 || r.Parent >= i {
			rootOf[i] = i
			t := &trace.TreeRecord{
				Schema:      trace.Schema,
				TraceID:     trace.NewTraceID().String(),
				StartUnixNS: epoch.Add(r.Start).UnixNano(),
				Attrs:       map[string]any{"workload": label},
			}
			byRoot[i] = t
			out = append(out, t)
		} else {
			rootOf[i] = rootOf[r.Parent]
		}
		t := byRoot[rootOf[i]]
		sr := trace.SpanRecord{
			SpanID:  ids[i],
			Name:    r.Name,
			StartNS: int64(r.Start) - int64(recs[rootOf[i]].Start),
			DurNS:   int64(r.Dur),
		}
		if rootOf[i] != i {
			sr.ParentID = ids[r.Parent]
		}
		if !r.Done {
			sr.Unfinished, sr.DurNS = true, 0
		}
		t.Spans = append(t.Spans, sr)
	}
	return out
}
