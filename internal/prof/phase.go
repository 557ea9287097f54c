// The phase handle: one value that opens and closes a pipeline phase in
// every instrumentation sink at once, so the engine (internal/core) and
// the fault-parallel pool (internal/fsim) name each phase once and the
// sinks cannot drift apart:
//
//   - the obs span (aggregate phase totals, JSONL span events, the -v
//     footer);
//   - the span in the request tree the context carries, if any;
//   - on the seven diagnosis stages (see windowed), a prof window with
//     its phase=<name> pprof label.
//
// Each sink keeps its own disabled path, so with all three off a phase
// costs the obs stopwatch's clock reads (which keep Result.Elapsed
// populated) and one atomic load.
package prof

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"multidiag/internal/obs"
	"multidiag/internal/trace"
)

// windowed reports whether phase name opens a prof window: the diagnosis
// stages. The roots (diagnose, diagnose_batch) would count their stages
// twice, and fsim.parallel and fsim.worker run inside the score window.
func windowed(name string) bool {
	switch name {
	case "evidence", "goodsim", "extract", "score", "cover", "refine", "xcheck":
		return true
	}
	return false
}

// Phase is one open pipeline phase. The zero value is inert.
type Phase struct {
	// ctx is the caller's context plus the phase's pprof labels.
	ctx  context.Context
	obs  obs.Span
	span trace.Span
	win  PhaseToken
}

// Open opens a top-level phase: a root span on tr (nil tr: a bare
// stopwatch, so End still measures) and a span under the request-tree
// parent ctx carries.
func Open(ctx context.Context, tr *obs.Trace, name string) Phase {
	return open(ctx, tr.Span(name), trace.FromContext(ctx).Start(name), name)
}

// Open opens a phase nested under p.
func (p Phase) Open(name string) Phase {
	return open(p.ctx, p.obs.Child(name), p.span.Start(name), name)
}

func open(ctx context.Context, o obs.Span, s trace.Span, name string) Phase {
	p := Phase{ctx: ctx, obs: o, span: s}
	if windowed(name) {
		p.ctx, p.win = PhaseCtx(ctx, name)
	}
	return p
}

// Ctx returns the context work under the phase runs in: the caller's,
// plus the phase's pprof labels and, when tracing, the phase's span as
// the parent of spans opened below it (fsim's pool workers).
func (p Phase) Ctx() context.Context { return trace.WithSpan(p.ctx, p.span) }

// SetInt attaches an integer attribute to the phase's request-tree span.
func (p Phase) SetInt(key string, v int64) { p.span.SetInt(key, v) }

// End closes everything the phase opened — prof window, tree span, obs
// span, in that order — and returns the obs span's duration.
func (p Phase) End() time.Duration {
	p.win.End()
	p.span.End()
	return p.obs.End()
}

// Worker runs body as pool worker w of the phase ctx belongs to. With a
// collector installed, body runs under a worker=<w> pprof label on top
// of ctx's phase and workload labels. A non-empty span names a span
// opened around body under ctx's request-tree parent and tagged
// worker=<w>, which body may annotate through its Phase; a worker
// reports to no other sink, since its time already lies inside the
// enclosing phase's obs span and prof window.
func Worker(ctx context.Context, w int, span string, body func(context.Context, Phase)) {
	var p Phase
	if span != "" {
		p.span = trace.FromContext(ctx).Start(span)
		p.span.SetInt("worker", int64(w))
	}
	// pprof.Do inlined: labeling here instead of wrapping body in a
	// closure keeps the enabled path to pprof's own allocations.
	if active.Load() != nil {
		defer pprof.SetGoroutineLabels(ctx)
		ctx = pprof.WithLabels(ctx, pprof.Labels("worker", strconv.Itoa(w)))
		pprof.SetGoroutineLabels(ctx)
	}
	body(ctx, p)
	p.span.End()
}
