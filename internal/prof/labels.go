// pprof label propagation: with a collector installed, engine stages and
// fault-simulation workers tag their goroutines with phase / workload /
// worker labels, so `go tool pprof -tagfocus` (or the labels view) slices
// a -cpuprofile or /debug/pprof/profile capture by engine stage. Labels
// ride the context, so a phase opened in core flows into the worker
// goroutines fsim spawns under it. With no collector every helper is a
// pass-through: one atomic load, no context or closure allocation.
package prof

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// active is the installed process-wide collector. It stays nil —
// profiling disabled, the free path — until a CLI, service or test
// installs one via Enable.
var active atomic.Pointer[Collector]

// Active returns the installed collector, or nil when profiling is
// disabled.
func Active() *Collector { return active.Load() }

// Enable installs c as the process-wide collector (nil uninstalls, same
// as Disable).
func Enable(c *Collector) { active.Store(c) }

// Disable uninstalls the process-wide collector.
func Disable() { active.Store(nil) }

// Enabled reports whether a collector is installed.
func Enabled() bool { return active.Load() != nil }

// restoreCtx is the context whose labels PhaseToken.End restores.
type restoreCtx = context.Context

func (t PhaseToken) restoreLabels() {
	if t.restore != nil {
		pprof.SetGoroutineLabels(t.restore)
	}
}

// PhaseCtx opens a phase window on the installed collector AND tags the
// returned context and the calling goroutine with the pprof label
// phase=name. The token's End folds the runtime/metrics deltas and
// restores the goroutine's previous labels. With profiling disabled it
// returns (ctx, inert token) untouched.
func PhaseCtx(ctx context.Context, name string) (context.Context, PhaseToken) {
	c := active.Load()
	if c == nil {
		return ctx, PhaseToken{}
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels("phase", name))
	pprof.SetGoroutineLabels(lctx)
	t := c.Phase(name)
	t.restore = ctx
	return lctx, t
}

// WithWorkload tags ctx and the calling goroutine with workload=name
// (which every phase and worker label opened under it inherits) and
// returns the restore function for the previous labels. Serving and
// campaign layers call it once per diagnosis.
func WithWorkload(ctx context.Context, name string) (context.Context, func()) {
	if active.Load() == nil {
		return ctx, nop
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels("workload", name))
	pprof.SetGoroutineLabels(lctx)
	return lctx, func() { pprof.SetGoroutineLabels(ctx) }
}

func nop() {}

// Pin snapshots the collector state into the always-keep ring (see
// Collector.Pin) on the installed collector; no-op when disabled.
func Pin(reason string) { active.Load().Pin(reason) }

// PinWith is Pin with the triggering request's request/trace IDs stamped
// into the snapshot (see Collector.PinWith); no-op when disabled.
func PinWith(reason, requestID, traceID string) {
	active.Load().PinWith(reason, requestID, traceID)
}
