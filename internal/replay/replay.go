// Package replay re-executes a captured incident bundle offline. The
// engine's determinism contract — candidate extraction sorts by (net,
// polarity) and every parallel fold merges in seed order, so a report is
// bit-identical at any worker count — turns a bundle from a postmortem
// artifact into a reproducible experiment: Run re-drives core.DiagnoseCtx
// with the bundle's datalog at any -j and proves the replayed report
// byte-identical to the one the service answered with, while the trace
// tree from the replay diffs against the captured one to show what
// changed about *how* the answer was computed (phase times, cone-cache
// locality) even though the answer itself cannot change.
//
// The package sits above both serve and incident (it rebuilds reports via
// serve.BuildReport and reads incident.Bundle), which is why replay logic
// lives here instead of in internal/incident: incident must stay
// importable by serve.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"multidiag/internal/core"
	"multidiag/internal/fsim"
	"multidiag/internal/incident"
	"multidiag/internal/netlist"
	"multidiag/internal/serve"
	"multidiag/internal/sim"
	"multidiag/internal/tester"
	"multidiag/internal/trace"
)

// PhaseNames lists the engine phases whose spans the diff reports, in
// pipeline order (the span taxonomy of DESIGN.md §Observability).
var PhaseNames = []string{"evidence", "goodsim", "extract", "score", "cover", "refine", "xcheck"}

// RunResult is one offline re-execution of a bundle.
type RunResult struct {
	// Workers is the effective -j the replay ran at.
	Workers int
	// Report is the rebuilt wire report with volatile fields zeroed;
	// ReportJSON its canonical serialization (the byte-compare unit).
	Report     *serve.Report
	ReportJSON []byte
	// Trace is the replay's own span tree record.
	Trace *trace.TreeRecord
	// PhaseNS maps engine phase name → summed span duration in this run.
	PhaseNS map[string]int64
	// CacheHits / CacheMisses sum the cone-cache probe attrs over the
	// run's fsim.worker spans.
	CacheHits, CacheMisses int64
	ElapsedNS              int64
}

// Run re-executes the bundle's diagnosis at the given worker count
// (workers ≤ 0 selects the bundle's configured -j) against the resolved
// workload. A fresh cone cache is attached when the captured run had one,
// so the cache-delta diff compares a cold replay against the service's
// warm steady state.
func Run(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, b *incident.Bundle, workers int) (*RunResult, error) {
	log, err := tester.ReadDatalogFor(strings.NewReader(b.Datalog), len(pats), len(c.POs))
	if err != nil {
		return nil, fmt.Errorf("replay: bundle datalog: %w", err)
	}
	if workers <= 0 {
		workers = b.Engine.WorkersConfigured
	}
	cfg := core.Config{Workers: workers}
	if b.Engine.ConeCache {
		cfg.ConeCache = fsim.NewConeCache(0)
	}

	tree := trace.NewTree(trace.TraceID{})
	root := tree.Start("replay")
	start := time.Now()
	res, err := core.DiagnoseCtx(trace.WithSpan(ctx, root), c, pats, log, cfg)
	elapsed := time.Since(start)
	root.End()
	if err != nil {
		return nil, fmt.Errorf("replay: diagnose: %w", err)
	}

	top := b.Top
	if top <= 0 {
		top = 10
	}
	rep := serve.BuildReport(b.Workload, c, log, res, top)
	normalizeReport(rep)
	raw, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	rec := tree.Record()
	hits, misses := CacheStats(rec)
	return &RunResult{
		Workers:     fsim.Workers(workers),
		Report:      rep,
		ReportJSON:  raw,
		Trace:       rec,
		PhaseNS:     PhaseNS(rec),
		CacheHits:   hits,
		CacheMisses: misses,
		ElapsedNS:   elapsed.Nanoseconds(),
	}, nil
}

// normalizeReport zeroes the fields that legitimately vary run to run —
// timings, batching, join IDs, the narrative — leaving exactly the
// deterministic diagnosis content the byte-compare is entitled to.
func normalizeReport(rep *serve.Report) {
	rep.ElapsedMS = 0
	rep.QueueWaitMS = 0
	rep.BatchSize = 0
	rep.RequestID = ""
	rep.TraceID = ""
	rep.Explain = ""
}

// NormalizeCaptured canonicalizes a bundle's captured report: decoded
// into the wire struct (dropping nothing the schema defines), volatile
// fields zeroed, re-marshaled — directly comparable to a RunResult's
// ReportJSON. Returns nil when the bundle carries no report (shed,
// deadline and panic bundles never produced one).
func NormalizeCaptured(b *incident.Bundle) ([]byte, error) {
	if len(b.Report) == 0 {
		return nil, nil
	}
	var rep serve.Report
	if err := json.Unmarshal(b.Report, &rep); err != nil {
		return nil, fmt.Errorf("replay: captured report: %w", err)
	}
	normalizeReport(&rep)
	raw, err := json.Marshal(&rep)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return raw, nil
}

// attrInt reads a span attribute that may be an in-memory int64 or a
// JSON-decoded float64 (encoding/json turns every number into float64
// when the target is `any`).
func attrInt(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		return int64(n), true
	case int:
		return int64(n), true
	}
	return 0, false
}

// PhaseNS sums span durations by engine phase name over a trace record.
// Unknown span names (serve.queue, fsim.worker, …) are ignored, so the
// same extraction works on captured service trees and replay trees.
func PhaseNS(rec *trace.TreeRecord) map[string]int64 {
	out := make(map[string]int64, len(PhaseNames))
	if rec == nil {
		return out
	}
	want := make(map[string]bool, len(PhaseNames))
	for _, n := range PhaseNames {
		want[n] = true
	}
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if want[sp.Name] {
			out[sp.Name] += sp.DurNS
		}
	}
	return out
}

// CacheStats sums the cone-cache probe attributes over a record's
// fsim.worker spans.
func CacheStats(rec *trace.TreeRecord) (hits, misses int64) {
	if rec == nil {
		return 0, 0
	}
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.Name != "fsim.worker" {
			continue
		}
		if h, ok := attrInt(sp.Attrs["cache_hits"]); ok {
			hits += h
		}
		if m, ok := attrInt(sp.Attrs["cache_misses"]); ok {
			misses += m
		}
	}
	return hits, misses
}

// VerifyResult is the outcome of a multi-worker-count verification.
type VerifyResult struct {
	Runs []*RunResult
	// Captured is the bundle's normalized captured report (nil when the
	// bundle has none — the request never produced a report).
	Captured []byte
	// Identical reports byte-identity across every replayed worker count;
	// CapturedMatch additionally requires byte-identity with the captured
	// report when one exists (vacuously true otherwise).
	Identical     bool
	CapturedMatch bool
	// Mismatch describes the first divergence in plain words ("" when ok).
	Mismatch string
}

// OK reports full success: every run identical, captured report matched.
func (v *VerifyResult) OK() bool { return v.Identical && v.CapturedMatch }

// Verify replays the bundle at each worker count and checks the
// determinism contract: every replay byte-identical to every other, and
// to the captured report when the bundle carries one.
func Verify(ctx context.Context, c *netlist.Circuit, pats []sim.Pattern, b *incident.Bundle, workerCounts []int) (*VerifyResult, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	v := &VerifyResult{Identical: true, CapturedMatch: true}
	captured, err := NormalizeCaptured(b)
	if err != nil {
		return nil, err
	}
	v.Captured = captured
	for _, j := range workerCounts {
		r, err := Run(ctx, c, pats, b, j)
		if err != nil {
			return nil, err
		}
		v.Runs = append(v.Runs, r)
		if v.Identical && !bytes.Equal(r.ReportJSON, v.Runs[0].ReportJSON) {
			v.Identical = false
			v.Mismatch = fmt.Sprintf("report at -j %d differs from -j %d", r.Workers, v.Runs[0].Workers)
		}
		if v.CapturedMatch && captured != nil && !bytes.Equal(r.ReportJSON, captured) {
			v.CapturedMatch = false
			v.Mismatch = fmt.Sprintf("report at -j %d differs from the captured report", r.Workers)
		}
	}
	return v, nil
}
